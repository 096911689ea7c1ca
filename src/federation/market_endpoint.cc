#include "federation/market_endpoint.h"

#include <utility>

#include "common/snapshot.h"

namespace payless::federation {

MarketEndpoint::MarketEndpoint(EndpointConfig config, catalog::Catalog catalog,
                               const market::DataMarket& seller,
                               uint64_t sub_seed)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      market_(&catalog_, seller),
      sub_seed_(sub_seed) {
  if (config_.inject_faults) {
    market::FaultProfile profile = config_.fault_profile;
    profile.seed = sub_seed_;
    injector_ = std::make_unique<market::FaultInjector>(profile);
  }
}

FederatedMarket::FederatedMarket(const market::DataMarket* seller,
                                 uint64_t base_seed)
    : seller_(seller), base_seed_(base_seed) {}

uint64_t FederatedMarket::SubSeed(uint64_t base_seed,
                                  const std::string& endpoint_id) {
  // FNV-1a over the id bytes gives a platform-stable name hash; SplitMix64
  // then decorrelates it from the base seed so neighboring ids ("m0", "m1")
  // do not produce neighboring streams.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : endpoint_id) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return common::SplitMix64(base_seed ^ h);
}

Status FederatedMarket::AddEndpoint(EndpointConfig config) {
  if (config.id.empty()) {
    return Status::InvalidArgument("endpoint id must be non-empty");
  }
  for (const auto& e : endpoints_) {
    if (e->id() == config.id) {
      return Status::InvalidArgument("endpoint '" + config.id +
                                     "' already registered");
    }
  }
  catalog::Catalog catalog = seller_->catalog();
  for (const auto& [dataset, terms] : config.menu) {
    catalog::DatasetDef def;
    def.name = dataset;
    def.price_per_transaction = terms.price_per_transaction;
    def.tuples_per_transaction = terms.tuples_per_transaction;
    const Status s = catalog.OverrideDataset(std::move(def));
    if (!s.ok()) return s;
  }
  const uint64_t sub_seed = SubSeed(base_seed_, config.id);
  endpoints_.push_back(std::make_unique<MarketEndpoint>(
      std::move(config), std::move(catalog), *seller_, sub_seed));
  return Status::OK();
}

MarketEndpoint* FederatedMarket::endpoint(const std::string& id) {
  for (const auto& e : endpoints_) {
    if (e->id() == id) return e.get();
  }
  return nullptr;
}

}  // namespace payless::federation
