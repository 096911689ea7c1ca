#include "obs/savings_accountant.h"

#include <set>
#include <sstream>

namespace payless::obs {

SavingsAccountant::SavingsAccountant(const catalog::Catalog* catalog,
                                     const stats::StatsRegistry* stats,
                                     std::vector<Endpoint> endpoints)
    : catalog_(catalog), stats_(stats), endpoints_(std::move(endpoints)) {}

core::Counterfactual SavingsAccountant::PriceAgainst(
    const sql::BoundQuery& query, const catalog::Catalog* catalog,
    const core::OptimizerOptions& options) const {
  core::Counterfactual cf;
  const core::Optimizer optimizer(catalog, stats_, &empty_store_, options);
  const Result<core::OptimizeResult> result = optimizer.Optimize(query);
  if (!result.ok()) return cf;  // unpriceable: excluded, not guessed

  int64_t total = 0;
  for (const core::AccessSpec& access : result->plan.accesses) {
    const catalog::TableDef* def = query.relations[access.rel].def;
    if (def == nullptr || def->dataset.empty()) continue;  // local table
    cf.by_dataset[def->dataset] += access.est_transactions;
    total += access.est_transactions;
  }
  cf.total = total;
  cf.signature = PlanSignature(result->plan, query);
  return cf;
}

core::Counterfactual SavingsAccountant::Price(
    const sql::BoundQuery& query,
    const core::OptimizerOptions& options) const {
  // The baseline is the cheapest single market — a store-less client that
  // registered with its best endpoint and buys everything there. Ties
  // break toward registration order (endpoint 0 is the primary).
  core::OptimizerOptions single_market = options;
  single_market.federation = nullptr;  // no buy-site menu
  core::Counterfactual best;
  for (const auto& [endpoint, catalog] : endpoints_) {
    core::Counterfactual cf = PriceAgainst(query, catalog, single_market);
    if (!cf.ok()) continue;
    cf.market = endpoint;
    if (!best.ok() || cf.total < best.total) best = std::move(cf);
  }
  return best;
}

std::string SavingsAccountant::PlanSignature(const core::Plan& plan,
                                             const sql::BoundQuery& query) {
  std::ostringstream os;
  for (const core::AccessSpec& access : plan.accesses) {
    const catalog::TableDef* def = query.relations[access.rel].def;
    os << (def != nullptr ? def->name : "?") << ":"
       << core::AccessKindName(access.kind)
       << (access.used_sqr ? ":sqr" : "") << ":b" << access.bind_edges.size()
       << ";";
  }
  return os.str();
}

QuerySavings SavingsAccountant::RecordQuery(
    const core::Counterfactual& cf, const core::Plan& executed,
    const sql::BoundQuery& query, bool plan_cache_hit,
    const std::map<std::string, CostCell>& actual_cells,
    const std::string& tenant, SavingsLedger* ledger) const {
  QuerySavings summary;
  if (!cf.ok() || ledger == nullptr) return summary;
  summary.recorded = true;

  // What the executed plan actually leaned on, per dataset.
  struct DatasetFlags {
    bool store_full = false;  // some access served entirely from the store
    bool sqr = false;         // some access priced only a remainder
    bool federated = false;   // some access bought off the baseline market
    int64_t routing = 0;      // plan-time edge over the baseline's menu
  };
  const catalog::Catalog* cf_catalog = nullptr;
  for (const auto& [endpoint, catalog] : endpoints_) {
    if (endpoint == cf.market) cf_catalog = catalog;
  }
  std::map<std::string, DatasetFlags> flags;
  for (const core::AccessSpec& access : executed.accesses) {
    const catalog::TableDef* def = query.relations[access.rel].def;
    if (def == nullptr || def->dataset.empty()) continue;
    DatasetFlags& f = flags[def->dataset];
    if (access.kind == core::AccessSpec::Kind::kCached) f.store_full = true;
    if (access.used_sqr) f.sqr = true;
    if (!access.buy_site.empty() && access.buy_site != cf.market) {
      f.federated = true;
      // Replay the buy-site repricing for THIS access under the
      // counterfactual endpoint's menu: same access, same estimated rows,
      // the baseline's page size. The difference is exactly what routing
      // bought at plan time, independent of the counterfactual plan's
      // shape and of how estimates later compare to realized billing.
      const catalog::DatasetDef* base = catalog_->FindDataset(def->dataset);
      const catalog::DatasetDef* site =
          cf_catalog == nullptr ? nullptr
                                : cf_catalog->FindDataset(def->dataset);
      if (base != nullptr && site != nullptr) {
        f.routing += core::RepriceTransactions(
                         access.est_base_transactions, access.est_calls,
                         base->tuples_per_transaction,
                         site->tuples_per_transaction) -
                     access.est_transactions;
      }
    }
  }
  const bool learned_switch =
      cf.signature != PlanSignature(executed, query);

  std::set<std::string> datasets;
  for (const auto& [dataset, _] : cf.by_dataset) datasets.insert(dataset);
  for (const auto& [dataset, _] : actual_cells) datasets.insert(dataset);

  for (const std::string& dataset : datasets) {
    const auto cf_it = cf.by_dataset.find(dataset);
    const int64_t counterfactual =
        cf_it == cf.by_dataset.end() ? 0 : cf_it->second;
    const auto cell_it = actual_cells.find(dataset);
    const CostCell cell =
        cell_it == actual_cells.end() ? CostCell{} : cell_it->second;

    int64_t by_cause[kNumSavingsCauses] = {0, 0, 0, 0, 0, 0, 0};
    // Waste is its own (negative) bucket: the seller billed transactions
    // the query never used. The remaining delta goes to the dominant
    // positive cause, so the causes always sum to counterfactual - actual.
    by_cause[static_cast<int>(SavingsCause::kWaste)] =
        -cell.wasted_transactions;
    int64_t residual =
        counterfactual - cell.transactions + cell.wasted_transactions;

    const DatasetFlags f = flags.count(dataset) > 0 ? flags.at(dataset)
                                                    : DatasetFlags{};
    // A dataset the counterfactual prices but the query billed nothing on
    // was served from the semantic store at runtime — even when the plan
    // template (optimized against a colder store) still says "fetch".
    const bool served_free = counterfactual > 0 && cell.transactions == 0 &&
                             cell.wasted_transactions == 0;
    SavingsCause cause = SavingsCause::kEstimate;
    if (f.store_full || served_free) {
      cause = SavingsCause::kStoreFullHit;
    } else if (f.federated) {
      // Routed off the counterfactual's single market. Only the PLAN-TIME
      // edge is the buy-site's doing: each routed access repriced under
      // the baseline endpoint's menu minus its actual estimate (page size
      // / price menu). The realized-vs-estimate remainder is ordinary
      // cardinality noise and falls to kEstimate below, so routing never
      // absorbs misestimates it had no hand in.
      by_cause[static_cast<int>(SavingsCause::kFederationRouting)] +=
          f.routing;
      residual -= f.routing;
    } else if (f.sqr) {
      cause = SavingsCause::kSqrHarvest;
    } else if (learned_switch) {
      cause = SavingsCause::kLearnedSwitch;
    } else if (plan_cache_hit) {
      cause = SavingsCause::kPlanReuse;
    }
    by_cause[static_cast<int>(cause)] += residual;

    ledger->Record(tenant, dataset, counterfactual, cell.transactions,
                   by_cause, &cell.by_market);
    summary.counterfactual += counterfactual;
    summary.actual += cell.transactions;
    for (int i = 0; i < kNumSavingsCauses; ++i) {
      summary.by_cause[i] += by_cause[i];
    }
  }
  summary.savings = summary.counterfactual - summary.actual;
  return summary;
}

}  // namespace payless::obs
