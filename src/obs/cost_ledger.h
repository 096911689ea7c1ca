// Cost attribution: who spent which transaction on which dataset.
//
// The BillingMeter answers "how much did this connector spend in total";
// the CostLedger answers "where did each dollar go" — every billed
// transaction is attributed to a (tenant, query_id, dataset) key at the
// moment the connector records it on the meter, INCLUDING post-evaluation
// lost responses (the seller billed them, so the tenant owns that waste).
// The invariant the tests enforce: for a connector wired to one ledger,
//     ledger.total_transactions() == meter.total_transactions()
// under serial, concurrent and fault-storm execution alike.
//
// query_id 0 is reserved for spend outside any single query (batch
// prefetching, download-all warm-up).
#ifndef PAYLESS_OBS_COST_LEDGER_H_
#define PAYLESS_OBS_COST_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace payless::obs {

/// Aggregated spend of one (tenant, query, dataset) cell.
struct CostCell {
  int64_t transactions = 0;
  double price = 0.0;
  int64_t calls = 0;
  /// Subset of `transactions` billed for responses the client never used
  /// (post-evaluation lost responses). Always <= transactions.
  int64_t wasted_transactions = 0;
  /// Federation: transactions split by the market endpoint that billed
  /// them. Values sum to `transactions`; single-market deployments put
  /// everything under the "" key.
  std::map<std::string, int64_t> by_market;
};

/// Thread-safe attribution ledger. Every member serializes on one internal
/// mutex; Record is one map walk, cheap next to the market round trip it
/// accounts for.
class CostLedger {
 public:
  CostLedger() = default;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// `wasted_transactions` marks how many of `transactions` bought a
  /// response the client could not use (lost after the seller billed it).
  /// `market` is the federation endpoint that billed the call ("" in
  /// single-market deployments).
  void Record(const std::string& tenant, uint64_t query_id,
              const std::string& dataset, int64_t transactions, double price,
              int64_t wasted_transactions = 0, const std::string& market = "");

  int64_t total_transactions() const;
  double total_price() const;
  int64_t total_calls() const;

  /// Lifetime spend of one tenant (all queries, all datasets).
  int64_t TenantTransactions(const std::string& tenant) const;

  /// Full per-dataset cells of one query (transactions, price, calls,
  /// waste): the QueryReport's spend and breakdown, and the savings
  /// accountant's reconciliation input.
  std::map<std::string, CostCell> QueryCells(const std::string& tenant,
                                             uint64_t query_id) const;

  /// Per-dataset lifetime spend of one tenant.
  std::map<std::string, CostCell> TenantByDataset(
      const std::string& tenant) const;

  void Reset();

  /// {"total_transactions":..., "total_price":..., "total_calls":...,
  /// "tenants":{name:{"transactions":...,
  /// "price":..., "datasets":{name: transactions}}}}
  std::string ToJson() const;

 private:
  struct TenantEntry {
    CostCell rollup;  // O(1) tenant totals for the admission hot path
    // query -> dataset -> cell; map keeps exposition deterministic.
    std::map<uint64_t, std::map<std::string, CostCell>> queries;
  };

  mutable std::mutex mutex_;
  std::map<std::string, TenantEntry> tenants_;
  CostCell total_;
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_COST_LEDGER_H_
