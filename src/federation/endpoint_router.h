// Per-client routing across a federation's endpoints.
//
// Each PayLess client owns one EndpointRouter, and the router owns one
// MarketConnector per endpoint — listeners (semantic store, statistics,
// durability) are per-client state, so connectors cannot be shared between
// clients. The router wires each connector to its endpoint's market, fault
// injector, simulated latency and market label, fans the client's retry
// policy and listeners out to all of them, and answers two questions on
// the query path:
//
//   - BuildPricing(): the point-in-time buy-site menu (terms + breaker
//     liveness) the optimizer prices each access against;
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

#include "core/federation.h"
#include "federation/market_endpoint.h"
#include "market/data_market.h"
#include "obs/latency.h"

namespace payless::federation {

class EndpointRouter {
 public:
  /// `federation` must outlive the router. Endpoint order (and therefore
  /// primary()) follows registration order.
  explicit EndpointRouter(FederatedMarket* federation);

  EndpointRouter(const EndpointRouter&) = delete;
  EndpointRouter& operator=(const EndpointRouter&) = delete;

  size_t num_endpoints() const { return connectors_.size(); }
  FederatedMarket* federation() { return federation_; }

  /// Endpoint 0's connector — the default buy-site when an access carries
  /// no annotation (e.g. single-market plans replayed under federation).
  market::MarketConnector* primary() { return connectors_[0].get(); }

  /// Connector of the named endpoint; "" or an unknown id falls back to
  /// the primary (an access annotated against a menu snapshot may name an
  /// endpoint that was since removed — never in this in-process model, but
  /// the fallback keeps routing total).
  market::MarketConnector* ConnectorFor(const std::string& endpoint_id);

  market::MarketConnector* connector(size_t i) { return connectors_[i].get(); }
  const market::MarketConnector& connector(size_t i) const {
    return *connectors_[i];
  }
  const std::string& endpoint_id(size_t i) const {
    return federation_->endpoint(i)->id();
  }

  /// Fan-out to every endpoint connector (setup-time).
  void SetRetryPolicy(const market::RetryPolicy& policy);
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
    return routed_calls_[i]->load(std::memory_order_relaxed);
  }

  /// Sum of every endpoint meter's billed transactions — the reconciliation
  /// counterpart of the CostLedger total.
  int64_t TotalMeteredTransactions() const;

  /// {"federated":true,"endpoints":[{"id":...,"transactions":...,
  ///   "price":...,"calls":...,"routed_calls":...,"breakers":{...}},...],
  ///  "failovers":N} — the /markets introspection document.
  std::string StatsJson() const;

 private:
  size_t IndexOf(const std::string& endpoint_id) const;  // SIZE_MAX if none
  std::vector<std::string> DatasetNames() const;

  FederatedMarket* federation_;
  std::vector<std::unique_ptr<market::MarketConnector>> connectors_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> routed_calls_;
  /// Per-endpoint RTT histograms (not owned); nullptr until bound.
  std::vector<obs::LatencyHistogram*> rtt_;
  std::atomic<int64_t> failovers_{0};
};

}  // namespace payless::federation

#endif  // PAYLESS_FEDERATION_ENDPOINT_ROUTER_H_
