// Multi-market federation: a registry of market endpoints that sell
// overlapping logical datasets under different terms.
//
// The paper prices every access against one market (Eq. 1), but real cloud
// data markets are geo-distributed: the same dataset is offered by several
// regions/sellers at different prices, page sizes, latencies and fault
// rates. A MarketEndpoint wraps one such seller — its own DataMarket over
// its own copy of the catalog (so Eq. 1 is evaluated under THAT endpoint's
// menu), an optional independent FaultInjector, and a simulated network
// latency. The FederatedMarket owns the endpoints and builds them over one
// seller market: every endpoint sells that market's hosted tables, shared
// rather than copied, modeling sellers that carry the same logical product.
//
// Determinism: each endpoint's injector is seeded with an independent
// sub-seed derived via SplitMix64 from the base seed and the endpoint id,
// so adding an endpoint never perturbs another endpoint's fault stream and
// single-market runs stay byte-identical.
#ifndef PAYLESS_FEDERATION_MARKET_ENDPOINT_H_
#define PAYLESS_FEDERATION_MARKET_ENDPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "market/data_market.h"
#include "market/fault_injector.h"

namespace payless::federation {

/// One endpoint's terms for one dataset (its row of the price menu).
struct DatasetTerms {
  double price_per_transaction = 1.0;
  int64_t tuples_per_transaction = 100;
};

struct EndpointConfig {
  std::string id;  // e.g. "us-east"; must be unique within a federation
  /// Per-dataset menu overrides; datasets not listed keep the base
  /// catalog's terms.
  std::map<std::string, DatasetTerms> menu;
  /// Fault mix of this endpoint; only attached when `inject_faults`. The
  /// profile's seed field is ignored — the federation derives the
  /// endpoint's sub-seed from its own base seed and the endpoint id.
  market::FaultProfile fault_profile;
  bool inject_faults = false;
};

/// One market endpoint: catalog copy under its menu + DataMarket (over the
/// seller's hosted tables) + injector.
class MarketEndpoint {
 public:
  MarketEndpoint(EndpointConfig config, catalog::Catalog catalog,
                 const market::DataMarket& seller, uint64_t sub_seed);

  MarketEndpoint(const MarketEndpoint&) = delete;
  MarketEndpoint& operator=(const MarketEndpoint&) = delete;

  const std::string& id() const { return config_.id; }
  const EndpointConfig& config() const { return config_; }
  /// The base catalog with this endpoint's dataset terms substituted in.
  const catalog::Catalog& catalog() const { return catalog_; }
  market::DataMarket* market() { return &market_; }
  const market::DataMarket& market() const { return market_; }
  /// nullptr when the endpoint injects no faults.
  market::FaultInjector* injector() { return injector_.get(); }
  uint64_t sub_seed() const { return sub_seed_; }

 private:
  EndpointConfig config_;
  catalog::Catalog catalog_;  // stable: DataMarket points into it
  market::DataMarket market_;
  uint64_t sub_seed_ = 0;
  std::unique_ptr<market::FaultInjector> injector_;
};

/// The endpoint registry over one seller market. Endpoints are append-only
/// and setup-time: add them all, then serve queries. Every endpoint sells
/// the seller's one hosted copy of each table, so a release into the seller
/// market reaches every endpoint; per-endpoint terms differ, contents do
/// not.
class FederatedMarket {
 public:
  /// `seller` (and its catalog, the base every menu overrides) must outlive
  /// the federation; `base_seed` roots every endpoint's fault-injector
  /// sub-seed.
  explicit FederatedMarket(const market::DataMarket* seller,
                           uint64_t base_seed = 42);

  FederatedMarket(const FederatedMarket&) = delete;
  FederatedMarket& operator=(const FederatedMarket&) = delete;

  /// Registers an endpoint: copies the base catalog, applies the menu
  /// overrides, derives the sub-seed, attaches the injector. Rejects
  /// duplicate ids and menu entries naming unknown datasets.
  Status AddEndpoint(EndpointConfig config);

  MarketEndpoint* endpoint(const std::string& id);
  MarketEndpoint* endpoint(size_t i) { return endpoints_[i].get(); }
  const MarketEndpoint& endpoint(size_t i) const { return *endpoints_[i]; }
  size_t num_endpoints() const { return endpoints_.size(); }

  /// The deterministic per-endpoint seed: SplitMix64 over the base seed
  /// mixed with a stable hash of the endpoint id.
  static uint64_t SubSeed(uint64_t base_seed, const std::string& endpoint_id);

 private:
  const market::DataMarket* seller_;
  uint64_t base_seed_;
  std::vector<std::unique_ptr<MarketEndpoint>> endpoints_;
};

}  // namespace payless::federation

#endif  // PAYLESS_FEDERATION_MARKET_ENDPOINT_H_
