#include "federation/placement.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace payless::federation {

PlacementPolicy::PlacementPolicy(int64_t capacity_bytes,
                                 semstore::SemanticStore* store,
                                 const catalog::Catalog* catalog,
                                 const EndpointRouter* router)
    : capacity_bytes_(capacity_bytes),
      store_(store),
      catalog_(catalog),
      router_(router) {}

size_t PlacementPolicy::Tick() {
  // Rank every stored table by re-buy value density: what the cheapest
  // live endpoint would bill to re-acquire the pooled rows, per retained
  // byte. Cheap-to-rebuy tables go first when over budget.
  std::vector<TableValue> ranking;
  int64_t total_bytes = 0;
  for (const semstore::StoreTableStats& stats : store_->SnapshotStats()) {
    if (stats.pooled_rows == 0 && stats.views == 0) continue;
    TableValue value;
    value.table = stats.table;
    value.bytes = stats.approx_bytes;
    value.pooled_rows = static_cast<int64_t>(stats.pooled_rows);
    const catalog::TableDef* def = catalog_->FindTable(stats.table);
    if (def != nullptr) value.dataset = def->dataset;

    double cost_per_tuple = 0.0;
    if (!value.dataset.empty()) {
      // With the dataset down at every endpoint no site is cheapest, and
      // the re-buy is priced at the base catalog's terms.
      value.cheapest_endpoint = router_->NextCheapestLive(value.dataset, {});
      const catalog::DatasetDef* terms =
          router_->TermsFor(value.cheapest_endpoint, value.dataset);
      if (terms == nullptr) terms = catalog_->FindDataset(value.dataset);
      if (terms != nullptr && terms->tuples_per_transaction > 0) {
        cost_per_tuple = terms->price_per_transaction /
                         static_cast<double>(terms->tuples_per_transaction);
      }
    }
    value.rebuy_cost =
        cost_per_tuple * static_cast<double>(value.pooled_rows);
    total_bytes += value.bytes;
    ranking.push_back(std::move(value));
  }

  size_t evicted = 0;
  if (total_bytes > capacity_bytes_) {
    // Local tables (empty dataset) are not purchased data — never evicted
    // here — so sort priced tables by value density, cheapest-to-rebuy
    // first, and drop until the budget holds.
    std::vector<size_t> candidates;
    for (size_t i = 0; i < ranking.size(); ++i) {
      if (!ranking[i].dataset.empty()) candidates.push_back(i);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](size_t a, size_t b) {
                const auto density = [&](const TableValue& v) {
                  return v.bytes > 0
                             ? v.rebuy_cost / static_cast<double>(v.bytes)
                             : 0.0;
                };
                const double da = density(ranking[a]);
                const double db = density(ranking[b]);
                if (da != db) return da < db;
                return ranking[a].table < ranking[b].table;  // determinism
              });
    for (const size_t i : candidates) {
      if (total_bytes <= capacity_bytes_) break;
      store_->DropTable(ranking[i].table);
      ranking[i].retained = false;
      total_bytes -= ranking[i].bytes;
      ++evicted;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  last_decision_ = std::move(ranking);
  retained_bytes_ = total_bytes;
  ++ticks_;
  evicted_tables_ += static_cast<int64_t>(evicted);
  return evicted;
}

std::vector<PlacementPolicy::TableValue> PlacementPolicy::LastDecision()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_decision_;
}

int64_t PlacementPolicy::evicted_tables() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_tables_;
}

std::string PlacementPolicy::StatsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"capacity_bytes\":" << capacity_bytes_
     << ",\"retained_bytes\":" << retained_bytes_ << ",\"ticks\":" << ticks_
     << ",\"evicted_tables\":" << evicted_tables_ << ",\"tables\":[";
  bool first = true;
  for (const TableValue& v : last_decision_) {
    if (!first) os << ",";
    first = false;
    os << "{\"table\":\"" << v.table << "\",\"dataset\":\"" << v.dataset
       << "\",\"bytes\":" << v.bytes << ",\"pooled_rows\":" << v.pooled_rows
       << ",\"rebuy_cost\":" << v.rebuy_cost << ",\"cheapest_endpoint\":\""
       << v.cheapest_endpoint << "\",\"retained\":"
       << (v.retained ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace payless::federation
