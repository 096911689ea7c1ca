// One-stop experiment setup: generated catalog + hosted market data +
// local tables + instantiated query workload, plus client factories for the
// four systems the evaluation compares (PayLess, PayLess w/o SQR,
// Minimizing Calls, Download All).
#ifndef PAYLESS_WORKLOAD_BUNDLE_H_
#define PAYLESS_WORKLOAD_BUNDLE_H_

#include <memory>

#include "exec/download_all.h"
#include "exec/payless.h"
#include "federation/market_endpoint.h"
#include "market/data_market.h"
#include "workload/queries.h"
#include "workload/tpch.h"
#include "workload/whw.h"

namespace payless::workload {

struct Bundle {
  catalog::Catalog catalog;
  std::map<std::string, std::vector<Row>> local_tables;
  /// Hosts the seller-side rows — their only copy; federations replicate
  /// from market->HostedRows.
  std::unique_ptr<market::DataMarket> market;
  std::vector<QueryInstance> queries;
};

/// Real workload (WHW + EHR + ZipMap, templates Q1-Q5), `per_template`
/// instances each, shuffled with `query_seed`.
std::unique_ptr<Bundle> MakeRealBundle(const RealDataOptions& options,
                                       size_t per_template,
                                       uint64_t query_seed);

/// TPC-H (or TPC-H skew when options.zipf > 0) workload with the 20
/// templates.
std::unique_ptr<Bundle> MakeTpchBundle(const TpchOptions& options,
                                       size_t per_template,
                                       uint64_t query_seed);

/// A PayLess client wired to the bundle's market, with local tables loaded.
std::unique_ptr<exec::PayLess> NewPayLessClient(const Bundle& bundle,
                                                exec::PayLessConfig config);

/// Convenience configs for the paper's comparison systems.
exec::PayLessConfig PayLessFullConfig();
exec::PayLessConfig PayLessNoSqrConfig();      // "PayLess w/o SQR"
exec::PayLessConfig MinimizingCallsConfig();   // baseline [27]

/// The "Download All" client, local tables loaded.
std::unique_ptr<exec::DownloadAllClient> NewDownloadAllClient(
    const Bundle& bundle);

/// One seller in a federated overlay built over a bundle's catalog.
struct FederatedEndpointSpec {
  std::string id;
  double price_scale = 1.0;     // price multiplier on non-assigned datasets
  double discount_scale = 0.7;  // price multiplier on assigned datasets
  /// Page-size multiplier on assigned datasets: bigger pages mean fewer
  /// billed transactions for the same rows, so the optimizer's buy-site
  /// choice shows up in transaction counts, not just money.
  double discount_page_scale = 2.0;
  market::FaultProfile fault_profile;
  bool inject_faults = false;
  int64_t simulated_latency_micros = 0;
};

/// N-endpoint federation over the bundle's datasets, every endpoint hosting
/// every table. Dataset d (catalog order) is discounted at endpoint
/// d % specs.size(), so with 2+ endpoints no single market is cheapest for
/// every dataset and cross-market plans genuinely beat single-market ones.
std::unique_ptr<federation::FederatedMarket> MakeFederatedMarket(
    const Bundle& bundle, const std::vector<FederatedEndpointSpec>& specs,
    uint64_t base_seed = 42);

/// A PayLess client routing through `federation` (the bundle market stays
/// the fallback surface for non-query paths), local tables loaded.
std::unique_ptr<exec::PayLess> NewFederatedPayLessClient(
    const Bundle& bundle, federation::FederatedMarket* federation,
    exec::PayLessConfig config);

}  // namespace payless::workload

#endif  // PAYLESS_WORKLOAD_BUNDLE_H_
