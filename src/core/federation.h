// Buy-site pricing menus for multi-market federation.
//
// In a federated deployment the same logical dataset is sold by several
// market endpoints under different terms: page size (tuples per
// transaction), price per transaction, and availability (an endpoint whose
// circuit breaker is open is not a viable buy-site). The optimizer stays
// free of any knowledge of connectors or endpoints — it only sees this
// pure-data menu, snapshotted per query, and annotates each priced access
// with the cheapest live buy-site (AccessSpec::buy_site).
//
// A single-market client is the one-endpoint case: its menu lists one
// endpoint, "", under the market's own catalog terms.
//
// This header is deliberately std-only so core/ keeps no dependency on
// market/ or federation/ — the router in src/federation builds the menu,
// the optimizer consumes it.
#ifndef PAYLESS_CORE_FEDERATION_H_
#define PAYLESS_CORE_FEDERATION_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace payless::core {

/// One endpoint's terms for one dataset.
struct BuySiteMenu {
  std::string endpoint;                 // endpoint id, e.g. "us-east"
  double price_per_transaction = 1.0;   // money per page at this endpoint
  int64_t tuples_per_transaction = 100; // page size at this endpoint
  bool live = true;                     // false while the breaker is open
};

/// Per-dataset menus across all registered endpoints. Built by the
/// federation router as a point-in-time snapshot (breaker states included)
/// just before each optimization; never mutated concurrently.
struct FederationPricing {
  std::map<std::string, std::vector<BuySiteMenu>> menus;

  const std::vector<BuySiteMenu>* MenuFor(const std::string& dataset) const {
    auto it = menus.find(dataset);
    return it == menus.end() ? nullptr : &it->second;
  }

  bool empty() const { return menus.empty(); }
};

/// The buy-site repricing formula: what an access estimated at
/// `base_transactions` pages of `base_tuples` rows over `calls` REST calls
/// bills at a site that pages `site_tuples` rows. The call count is
/// shape-determined (remainder boxes / binding values) and does not change
/// with the buy-site; the paid row volume is approximated from the base
/// estimate and repaged, never below one page per call. A site with the
/// base page size reprices to exactly the base estimate. The optimizer
/// prices each endpoint with it; savings attribution replays it under the
/// counterfactual's endpoint.
inline int64_t RepriceTransactions(int64_t base_transactions, int64_t calls,
                                   int64_t base_tuples, int64_t site_tuples) {
  if (site_tuples == base_tuples) return base_transactions;
  const double paid_rows = static_cast<double>(base_transactions) *
                           static_cast<double>(base_tuples);
  const int64_t t = std::max<int64_t>(site_tuples, 1);
  int64_t txn = std::max(calls, static_cast<int64_t>(std::ceil(
                                    paid_rows / static_cast<double>(t))));
  if (base_transactions > 0) txn = std::max(txn, std::max<int64_t>(calls, 1));
  return txn;
}

}  // namespace payless::core

#endif  // PAYLESS_CORE_FEDERATION_H_
