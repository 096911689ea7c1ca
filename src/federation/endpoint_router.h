// Per-client routing across market endpoints: the market boundary of every
// PayLess client.
//
// Each PayLess client owns one EndpointRouter, and the router owns one
// MarketConnector per endpoint — listeners (semantic store, statistics,
// durability) are per-client state, so connectors cannot be shared between
// clients. A federated client's router is built over the federation's
// endpoints, each connector wired to its endpoint's market, fault injector
// and market label. A single-market client's router is
// the one-endpoint case: endpoint "" over that market, under the market's
// own catalog, so its ledger cells, EXPLAIN text and spans carry no label.
// Every purchase then takes one path, and the router answers the questions
// that path asks:
//
//   - BuildPricing(): the point-in-time buy-site menu (terms + breaker
//     liveness) the optimizer prices each access against;
//   - TermsFor(): the page size an access's calls are chunked by;
//   - NextCheapestLive(): where the executor fails over to when an
//     endpoint's breaker opens mid-query. Ranking is static per-tuple
//     cost under each endpoint's menu, so failover walks the price menu
//     cheapest-first and never revisits a tried endpoint.
//
// Billing stays per-endpoint: every connector bills its own meter and
// stamps its market label into the CostLedger, so
//   ledger total == sum over endpoints of meter totals
// holds under failover by construction (the failover re-issues only calls
// that billed nothing on the dead endpoint).
#ifndef PAYLESS_FEDERATION_ENDPOINT_ROUTER_H_
#define PAYLESS_FEDERATION_ENDPOINT_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/federation.h"
#include "federation/market_endpoint.h"
#include "market/data_market.h"
#include "obs/latency.h"

namespace payless::federation {

class EndpointRouter {
 public:
  /// One endpoint per federation endpoint; `federation` must outlive the
  /// router and hold at least one endpoint. Endpoint order (and therefore
  /// primary()) follows registration order.
  explicit EndpointRouter(FederatedMarket* federation);

  /// A single market as the one endpoint "" whose terms are the market's
  /// own catalog (not a copy: tables registered later stay visible).
  /// `market` must outlive the router.
  explicit EndpointRouter(const market::DataMarket* market);

  EndpointRouter(const EndpointRouter&) = delete;
  EndpointRouter& operator=(const EndpointRouter&) = delete;

  size_t num_endpoints() const { return endpoints_.size(); }

  /// Endpoint 0's connector — the buy-site of an access that carries no
  /// annotation (the single market's only endpoint; under federation, an
  /// access planned while no endpoint selling its dataset was live).
  market::MarketConnector* primary() { return connector(0); }

  /// Connector of the named endpoint; an unknown id (under federation, ""
  /// too) falls back to the primary, so routing stays total.
  market::MarketConnector* ConnectorFor(const std::string& endpoint_id);

  /// The terms `endpoint_id` sells `dataset` under; nullptr when either is
  /// unknown, so an unannotated federated access keeps the base catalog's
  /// page size.
  const catalog::DatasetDef* TermsFor(const std::string& endpoint_id,
                                      const std::string& dataset) const;

  market::MarketConnector* connector(size_t i) {
    return endpoints_[i].connector.get();
  }
  const market::MarketConnector& connector(size_t i) const {
    return *endpoints_[i].connector;
  }
  const std::string& endpoint_id(size_t i) const { return endpoints_[i].id; }
  const catalog::Catalog& terms(size_t i) const { return *endpoints_[i].terms; }

  /// Fan-out to every endpoint connector (setup-time).
  void AddListener(market::MarketConnector::Listener listener);

  /// Latency instrumentation of endpoint `i`'s connector (setup-time).
  /// The router keeps `hooks.rtt` so StatsJson can render the endpoint's
  /// RTT tail next to its breaker states; the registry owns the handles.
  void BindLatency(size_t i,
                   const market::MarketConnector::LatencyHooks& hooks);

  /// Point-in-time buy-site menu: every endpoint's terms for every
  /// dataset, with `live` reflecting the endpoint's breaker state for that
  /// dataset NOW. Snapshotted per query, before optimization.
  core::FederationPricing BuildPricing() const;

  /// The cheapest endpoint (per-tuple cost for `dataset`) whose breaker is
  /// not open and whose id is not in `exclude`. Empty string when every
  /// endpoint is excluded or down.
  std::string NextCheapestLive(const std::string& dataset,
                               const std::vector<std::string>& exclude) const;

  /// Failover accounting (the executor reports; /markets renders).
  /// CountRoutedCalls counts the calls submitted to an endpoint, delivered
  /// or not; a call re-issued after failover counts at each endpoint.
  void CountRoutedCalls(const std::string& endpoint_id, int64_t calls);
  void CountFailover();
  int64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  int64_t routed_calls(size_t i) const {
    return endpoints_[i].routed_calls.load(std::memory_order_relaxed);
  }

  /// Sum of every endpoint meter's billed transactions — the reconciliation
  /// counterpart of the CostLedger total.
  int64_t TotalMeteredTransactions() const;

  /// {"federated":true|false,"endpoints":[{"id":...,"transactions":...,
  ///   "price":...,"calls":...,"routed_calls":...,"breakers":{...}},...],
  ///  "failovers":N} — the /markets introspection document.
  std::string StatsJson() const;

 private:
  struct Endpoint {
    std::string id;
    const catalog::Catalog* terms = nullptr;  // this endpoint's menu
    std::unique_ptr<market::MarketConnector> connector;
    std::atomic<int64_t> routed_calls{0};
    obs::LatencyHistogram* rtt = nullptr;  // not owned; nullptr until bound
  };

  /// Fills endpoint `i`: its id, terms and a connector over `market`
  /// labelled with the id. Returns the connector.
  market::MarketConnector* InitEndpoint(size_t i, std::string id,
                                        const catalog::Catalog* terms,
                                        const market::DataMarket* market);
  size_t IndexOf(const std::string& endpoint_id) const;  // SIZE_MAX if none

  const bool federated_;
  std::vector<Endpoint> endpoints_;  // sized once at construction
  std::atomic<int64_t> failovers_{0};
};

}  // namespace payless::federation

#endif  // PAYLESS_FEDERATION_ENDPOINT_ROUTER_H_
