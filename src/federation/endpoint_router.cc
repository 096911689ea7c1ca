#include "federation/endpoint_router.h"

#include <algorithm>
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

}  // namespace

EndpointRouter::EndpointRouter(FederatedMarket* federation)
    : federation_(federation) {
  for (size_t i = 0; i < federation_->num_endpoints(); ++i) {
    MarketEndpoint* endpoint = federation_->endpoint(i);
    auto connector =
        std::make_unique<market::MarketConnector>(endpoint->market());
    connector->SetMarketLabel(endpoint->id());
    connector->SetFaultInjector(endpoint->injector());
    connector->SetSimulatedLatencyMicros(
        endpoint->config().simulated_latency_micros);
    connectors_.push_back(std::move(connector));
    routed_calls_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    rtt_.push_back(nullptr);
  }
}

void EndpointRouter::BindLatency(
    size_t i, const market::MarketConnector::LatencyHooks& hooks) {
  if (i >= connectors_.size()) return;
  rtt_[i] = hooks.rtt;
  connectors_[i]->BindLatency(hooks);
}

size_t EndpointRouter::IndexOf(const std::string& endpoint_id) const {
  for (size_t i = 0; i < connectors_.size(); ++i) {
    if (federation_->endpoint(i)->id() == endpoint_id) return i;
  }
  return std::numeric_limits<size_t>::max();
}

market::MarketConnector* EndpointRouter::ConnectorFor(
    const std::string& endpoint_id) {
  const size_t i = IndexOf(endpoint_id);
  return i == std::numeric_limits<size_t>::max() ? primary()
                                                 : connectors_[i].get();
}

void EndpointRouter::SetRetryPolicy(const market::RetryPolicy& policy) {
  for (const auto& connector : connectors_) {
    connector->SetRetryPolicy(policy);
  }
}

void EndpointRouter::AddListener(market::MarketConnector::Listener listener) {
  for (const auto& connector : connectors_) {
    connector->AddListener(listener);
  }
}

std::vector<std::string> EndpointRouter::DatasetNames() const {
  std::set<std::string> names;
  const catalog::Catalog* base = federation_->base_catalog();
  for (const std::string& table : base->TableNames()) {
    const catalog::TableDef* def = base->FindTable(table);
    if (def != nullptr && !def->dataset.empty()) names.insert(def->dataset);
  }
  return {names.begin(), names.end()};
}

core::FederationPricing EndpointRouter::BuildPricing() const {
  core::FederationPricing pricing;
  const std::vector<std::string> datasets = DatasetNames();
  for (size_t i = 0; i < connectors_.size(); ++i) {
    const MarketEndpoint& endpoint = *federation_->endpoint(i);
    for (const std::string& dataset : datasets) {
      const catalog::DatasetDef* def = endpoint.catalog().FindDataset(dataset);
      if (def == nullptr) continue;
      core::BuySiteMenu menu;
      menu.endpoint = endpoint.id();
      menu.price_per_transaction = def->price_per_transaction;
      menu.tuples_per_transaction = def->tuples_per_transaction;
      menu.live = connectors_[i]->breaker_state(dataset) !=
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
  for (size_t i = 0; i < connectors_.size(); ++i) {
    const MarketEndpoint& endpoint = *federation_->endpoint(i);
    if (std::find(exclude.begin(), exclude.end(), endpoint.id()) !=
        exclude.end()) {
      continue;
    }
    if (connectors_[i]->breaker_state(dataset) ==
        market::CircuitBreakerSet::State::kOpen) {
      continue;
    }
    const double cost = endpoint.CostPerTuple(dataset);
    if (cost < best_cost) {
      best_cost = cost;
      best = endpoint.id();
    }
  }
  return best;
}

void EndpointRouter::CountRoutedCalls(const std::string& endpoint_id,
                                      int64_t calls) {
  const size_t i = IndexOf(endpoint_id);
  if (i == std::numeric_limits<size_t>::max()) return;
  routed_calls_[i]->fetch_add(calls, std::memory_order_relaxed);
}

void EndpointRouter::CountFailover() {
  failovers_.fetch_add(1, std::memory_order_relaxed);
}

int64_t EndpointRouter::TotalMeteredTransactions() const {
  int64_t total = 0;
  for (const auto& connector : connectors_) {
    total += connector->meter().total_transactions();
  }
  return total;
}

std::string EndpointRouter::StatsJson() const {
  const std::vector<std::string> datasets = DatasetNames();
  std::ostringstream os;
  os << "{\"federated\":true,\"endpoints\":[";
  for (size_t i = 0; i < connectors_.size(); ++i) {
    const MarketEndpoint& endpoint = *federation_->endpoint(i);
    const market::BillingMeter& meter = connectors_[i]->meter();
    if (i > 0) os << ",";
    os << "{\"id\":\"" << endpoint.id() << "\""
       << ",\"transactions\":" << meter.total_transactions()
       << ",\"price\":" << meter.total_price()
       << ",\"calls\":" << meter.total_calls() << ",\"routed_calls\":"
       << routed_calls_[i]->load(std::memory_order_relaxed)
       << ",\"breakers\":{";
    bool first = true;
    for (const std::string& dataset : datasets) {
      if (!first) os << ",";
      first = false;
      os << "\"" << dataset << "\":\""
         << BreakerStateName(connectors_[i]->breaker_state(dataset)) << "\"";
    }
    os << "}";
    // Latency health next to breaker state: the endpoint's RTT tail.
    if (rtt_[i] != nullptr) {
      os << ",\"latency\":{\"rtt_p50_us\":" << rtt_[i]->ValueAtQuantile(0.50)
         << ",\"rtt_p99_us\":" << rtt_[i]->ValueAtQuantile(0.99) << "}";
    }
    os << "}";
  }
  os << "],\"failovers\":" << failovers_.load(std::memory_order_relaxed)
     << "}";
  return os.str();
}

}  // namespace payless::federation
