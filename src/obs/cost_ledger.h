// Cost attribution: who spent which transaction on which dataset.
//
// The BillingMeter answers "how much did this connector spend in total";
// the CostLedger answers "where did each dollar go" — every billed
// transaction is added to the deployment total, to its tenant's rollup and
// to its (tenant, dataset) rollup at the moment the connector records it on
// the meter, INCLUDING post-evaluation lost responses (the seller billed
// them, so the tenant owns that waste). The invariant the tests enforce:
// for a connector wired to one ledger,
//     ledger.total_transactions() == meter.total_transactions()
// under serial, concurrent and fault-storm execution alike.
//
// One query's spend is not kept here: the connector adds each billed call
// to the SpendRecord of the purchase that issued it (one per plan access,
// one per batch prefetch group), and the query report reads its own.
#ifndef PAYLESS_OBS_COST_LEDGER_H_
#define PAYLESS_OBS_COST_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace payless::obs {

/// Aggregated spend of evaluated market calls.
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

  /// Adds one evaluated call: `wasted_transactions` of its `transactions`
  /// bought a response the client could not use, and `market` is the
  /// federation endpoint that billed it ("" for a single market).
  void AddCall(int64_t transactions, double price, int64_t wasted_transactions,
               const std::string& market);
  CostCell& operator+=(const CostCell& other);
};

/// One purchase's spend: every call one plan access (or one batch prefetch
/// group) got evaluated, lost responses included, and the retries they
/// took. The connector adds to it at the billing point; the scheduler
/// drives all of a purchase's calls on the issuing thread, so it takes no
/// lock.
struct SpendRecord {
  CostCell cost;
  /// Attempts beyond each call's first.
  int64_t retries = 0;
};

/// Thread-safe attribution ledger. Every member serializes on one internal
/// mutex; Record adds to three cells, cheap next to the market round trip
/// it accounts for.
class CostLedger {
 public:
  CostLedger() = default;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// Adds one evaluated call, as CostCell::AddCall.
  void Record(const std::string& tenant, const std::string& dataset,
              int64_t transactions, double price,
              int64_t wasted_transactions = 0, const std::string& market = "");

  int64_t total_transactions() const;
  double total_price() const;
  int64_t total_calls() const;

  /// Lifetime spend of one tenant (all queries, all datasets).
  int64_t TenantTransactions(const std::string& tenant) const;

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
    std::map<std::string, CostCell> datasets;  // ordered for exposition
  };

  mutable std::mutex mutex_;
  std::map<std::string, TenantEntry> tenants_;
  CostCell total_;
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_COST_LEDGER_H_
