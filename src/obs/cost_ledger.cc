#include "obs/cost_ledger.h"

#include <sstream>

namespace payless::obs {

void CostCell::AddCall(int64_t call_transactions, double call_price,
                       int64_t call_wasted, const std::string& market) {
  transactions += call_transactions;
  price += call_price;
  calls += 1;
  wasted_transactions += call_wasted;
  by_market[market] += call_transactions;
}

CostCell& CostCell::operator+=(const CostCell& other) {
  transactions += other.transactions;
  price += other.price;
  calls += other.calls;
  wasted_transactions += other.wasted_transactions;
  for (const auto& [market, tx] : other.by_market) by_market[market] += tx;
  return *this;
}

void CostLedger::Record(const std::string& tenant, const std::string& dataset,
                        int64_t transactions, double price,
                        int64_t wasted_transactions,
                        const std::string& market) {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantEntry& entry = tenants_[tenant];
  for (CostCell* cell : {&total_, &entry.rollup, &entry.datasets[dataset]}) {
    cell->AddCall(transactions, price, wasted_transactions, market);
  }
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

std::map<std::string, CostCell> CostLedger::TenantByDataset(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? std::map<std::string, CostCell>{}
                              : it->second.datasets;
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
    bool first_ds = true;
    for (const auto& [dataset, cell] : entry.datasets) {
      if (!first_ds) os << ",";
      first_ds = false;
      os << "\"" << dataset << "\":" << cell.transactions;
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

}  // namespace payless::obs
