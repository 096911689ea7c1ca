#include "obs/cost_ledger.h"

#include <sstream>

namespace payless::obs {

void CostLedger::Record(const std::string& tenant, uint64_t query_id,
                        const std::string& dataset, int64_t transactions,
                        double price, int64_t wasted_transactions,
                        const std::string& market) {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantEntry& entry = tenants_[tenant];
  CostCell& cell = entry.queries[query_id][dataset];
  cell.transactions += transactions;
  cell.price += price;
  cell.calls += 1;
  cell.wasted_transactions += wasted_transactions;
  cell.by_market[market] += transactions;
  entry.rollup.transactions += transactions;
  entry.rollup.price += price;
  entry.rollup.calls += 1;
  entry.rollup.wasted_transactions += wasted_transactions;
  entry.rollup.by_market[market] += transactions;
  total_.transactions += transactions;
  total_.price += price;
  total_.calls += 1;
  total_.wasted_transactions += wasted_transactions;
  total_.by_market[market] += transactions;
}

int64_t CostLedger::total_transactions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_.transactions;
}

double CostLedger::total_price() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_.price;
}

int64_t CostLedger::total_calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_.calls;
}

int64_t CostLedger::TenantTransactions(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.rollup.transactions;
}

std::map<std::string, CostCell> CostLedger::QueryCells(
    const std::string& tenant, uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto tenant_it = tenants_.find(tenant);
  if (tenant_it == tenants_.end()) return {};
  const auto query_it = tenant_it->second.queries.find(query_id);
  if (query_it == tenant_it->second.queries.end()) return {};
  return query_it->second;
}

std::map<std::string, CostCell> CostLedger::TenantByDataset(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, CostCell> by_dataset;
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return by_dataset;
  for (const auto& [query, datasets] : it->second.queries) {
    for (const auto& [dataset, cell] : datasets) {
      CostCell& agg = by_dataset[dataset];
      agg.transactions += cell.transactions;
      agg.price += cell.price;
      agg.calls += cell.calls;
      agg.wasted_transactions += cell.wasted_transactions;
      for (const auto& [market, tx] : cell.by_market) {
        agg.by_market[market] += tx;
      }
    }
  }
  return by_dataset;
}

void CostLedger::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  tenants_.clear();
  total_ = CostCell{};
}

std::string CostLedger::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"total_transactions\":" << total_.transactions
     << ",\"total_price\":" << total_.price
     << ",\"total_calls\":" << total_.calls << ",\"tenants\":{";
  bool first_tenant = true;
  for (const auto& [tenant, entry] : tenants_) {
    if (!first_tenant) os << ",";
    first_tenant = false;
    os << "\"" << tenant
       << "\":{\"transactions\":" << entry.rollup.transactions
       << ",\"price\":" << entry.rollup.price << ",\"datasets\":{";
    // Re-aggregate per dataset across queries for the tenant view.
    std::map<std::string, int64_t> by_dataset;
    for (const auto& [query, datasets] : entry.queries) {
      for (const auto& [dataset, cell] : datasets) {
        by_dataset[dataset] += cell.transactions;
      }
    }
    bool first_ds = true;
    for (const auto& [dataset, tx] : by_dataset) {
      if (!first_ds) os << ",";
      first_ds = false;
      os << "\"" << dataset << "\":" << tx;
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

}  // namespace payless::obs
