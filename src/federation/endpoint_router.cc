#include "federation/endpoint_router.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>
#include <sstream>

namespace payless::federation {

namespace {

const char* BreakerStateName(market::CircuitBreakerSet::State state) {
  switch (state) {
    case market::CircuitBreakerSet::State::kClosed:
      return "closed";
    case market::CircuitBreakerSet::State::kOpen:
      return "open";
    case market::CircuitBreakerSet::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// The datasets `catalog`'s tables are sold under, sorted.
std::vector<std::string> DatasetNames(const catalog::Catalog& catalog) {
  std::set<std::string> names;
  for (const std::string& table : catalog.TableNames()) {
    const catalog::TableDef* def = catalog.FindTable(table);
    if (def != nullptr && !def->dataset.empty()) names.insert(def->dataset);
  }
  return {names.begin(), names.end()};
}

}  // namespace

EndpointRouter::EndpointRouter(FederatedMarket* federation)
    : federated_(true), endpoints_(federation->num_endpoints()) {
  assert(!endpoints_.empty());
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    MarketEndpoint* endpoint = federation->endpoint(i);
    market::MarketConnector* connector = InitEndpoint(
        i, endpoint->id(), &endpoint->catalog(), endpoint->market());
    connector->SetFaultInjector(endpoint->injector());
  }
}

EndpointRouter::EndpointRouter(const market::DataMarket* market)
    : federated_(false), endpoints_(1) {
  InitEndpoint(0, "", &market->catalog(), market);
}

market::MarketConnector* EndpointRouter::InitEndpoint(
    size_t i, std::string id, const catalog::Catalog* terms,
    const market::DataMarket* market) {
  Endpoint& endpoint = endpoints_[i];
  endpoint.id = std::move(id);
  endpoint.terms = terms;
  endpoint.connector = std::make_unique<market::MarketConnector>(market);
  endpoint.connector->SetMarketLabel(endpoint.id);
  return endpoint.connector.get();
}

void EndpointRouter::BindLatency(
    size_t i, const market::MarketConnector::LatencyHooks& hooks) {
  endpoints_[i].rtt = hooks.rtt;
  endpoints_[i].connector->BindLatency(hooks);
}

size_t EndpointRouter::IndexOf(const std::string& endpoint_id) const {
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i].id == endpoint_id) return i;
  }
  return std::numeric_limits<size_t>::max();
}

market::MarketConnector* EndpointRouter::ConnectorFor(
    const std::string& endpoint_id) {
  const size_t i = IndexOf(endpoint_id);
  return i == std::numeric_limits<size_t>::max() ? primary() : connector(i);
}

const catalog::DatasetDef* EndpointRouter::TermsFor(
    const std::string& endpoint_id, const std::string& dataset) const {
  const size_t i = IndexOf(endpoint_id);
  return i == std::numeric_limits<size_t>::max()
             ? nullptr
             : endpoints_[i].terms->FindDataset(dataset);
}

void EndpointRouter::AddListener(market::MarketConnector::Listener listener) {
  for (Endpoint& endpoint : endpoints_) {
    endpoint.connector->AddListener(listener);
  }
}

core::FederationPricing EndpointRouter::BuildPricing() const {
  core::FederationPricing pricing;
  for (const Endpoint& endpoint : endpoints_) {
    for (const std::string& dataset : DatasetNames(*endpoint.terms)) {
      const catalog::DatasetDef* def = endpoint.terms->FindDataset(dataset);
      if (def == nullptr) continue;
      core::BuySiteMenu menu;
      menu.endpoint = endpoint.id;
      menu.price_per_transaction = def->price_per_transaction;
      menu.tuples_per_transaction = def->tuples_per_transaction;
      menu.live = endpoint.connector->breaker_state(dataset) !=
                  market::CircuitBreakerSet::State::kOpen;
      pricing.menus[dataset].push_back(std::move(menu));
    }
  }
  return pricing;
}

std::string EndpointRouter::NextCheapestLive(
    const std::string& dataset,
    const std::vector<std::string>& exclude) const {
  std::string best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Endpoint& endpoint : endpoints_) {
    if (std::find(exclude.begin(), exclude.end(), endpoint.id) !=
        exclude.end()) {
      continue;
    }
    if (endpoint.connector->breaker_state(dataset) ==
        market::CircuitBreakerSet::State::kOpen) {
      continue;
    }
    const catalog::DatasetDef* terms = endpoint.terms->FindDataset(dataset);
    if (terms == nullptr || terms->tuples_per_transaction <= 0) continue;
    const double cost = terms->price_per_transaction /
                        static_cast<double>(terms->tuples_per_transaction);
    if (cost < best_cost) {
      best_cost = cost;
      best = endpoint.id;
    }
  }
  return best;
}

void EndpointRouter::CountRoutedCalls(const std::string& endpoint_id,
                                      int64_t calls) {
  const size_t i = IndexOf(endpoint_id);
  if (i == std::numeric_limits<size_t>::max()) return;
  endpoints_[i].routed_calls.fetch_add(calls, std::memory_order_relaxed);
}

void EndpointRouter::CountFailover() {
  failovers_.fetch_add(1, std::memory_order_relaxed);
}

int64_t EndpointRouter::TotalMeteredTransactions() const {
  int64_t total = 0;
  for (const Endpoint& endpoint : endpoints_) {
    total += endpoint.connector->meter().total_transactions();
  }
  return total;
}

std::string EndpointRouter::StatsJson() const {
  std::ostringstream os;
  os << "{\"federated\":" << (federated_ ? "true" : "false")
     << ",\"endpoints\":[";
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    const Endpoint& endpoint = endpoints_[i];
    const market::BillingMeter& meter = endpoint.connector->meter();
    if (i > 0) os << ",";
    os << "{\"id\":\"" << endpoint.id << "\""
       << ",\"transactions\":" << meter.total_transactions()
       << ",\"price\":" << meter.total_price()
       << ",\"calls\":" << meter.total_calls() << ",\"routed_calls\":"
       << endpoint.routed_calls.load(std::memory_order_relaxed)
       << ",\"breakers\":{";
    bool first = true;
    for (const std::string& dataset : DatasetNames(*endpoint.terms)) {
      if (!first) os << ",";
      first = false;
      os << "\"" << dataset << "\":\""
         << BreakerStateName(endpoint.connector->breaker_state(dataset))
         << "\"";
    }
    os << "}";
    // Latency health next to breaker state: the endpoint's RTT tail.
    if (endpoint.rtt != nullptr) {
      os << ",\"latency\":{\"rtt_p50_us\":"
         << endpoint.rtt->ValueAtQuantile(0.50)
         << ",\"rtt_p99_us\":" << endpoint.rtt->ValueAtQuantile(0.99) << "}";
    }
    os << "}";
  }
  os << "],\"failovers\":" << failovers_.load(std::memory_order_relaxed)
     << "}";
  return os.str();
}

}  // namespace payless::federation
