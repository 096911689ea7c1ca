#include "workload/bundle.h"

#include <algorithm>
#include <cassert>

namespace payless::workload {

namespace {

std::unique_ptr<Bundle> HostBundle(
    catalog::Catalog catalog,
    std::map<std::string, std::vector<Row>> market_tables,
    std::map<std::string, std::vector<Row>> local_tables,
    std::vector<QueryInstance> queries) {
  auto bundle = std::make_unique<Bundle>();
  bundle->catalog = std::move(catalog);
  bundle->local_tables = std::move(local_tables);
  bundle->queries = std::move(queries);
  bundle->market = std::make_unique<market::DataMarket>(&bundle->catalog);
  for (auto& [name, rows] : market_tables) {
    const Status st = bundle->market->HostTable(name, std::move(rows));
    assert(st.ok());
    (void)st;
  }
  return bundle;
}

}  // namespace

std::unique_ptr<Bundle> MakeRealBundle(const RealDataOptions& options,
                                       size_t per_template,
                                       uint64_t query_seed) {
  RealData data = MakeRealData(options);
  Rng rng(query_seed);
  std::vector<QueryInstance> queries =
      MakeRealQueries(data, per_template, &rng);
  return HostBundle(std::move(data.catalog), std::move(data.market_tables),
                    std::move(data.local_tables), std::move(queries));
}

std::unique_ptr<Bundle> MakeTpchBundle(const TpchOptions& options,
                                       size_t per_template,
                                       uint64_t query_seed) {
  TpchData data = MakeTpchData(options);
  Rng rng(query_seed);
  std::vector<QueryInstance> queries =
      MakeTpchQueries(data, per_template, &rng);
  return HostBundle(std::move(data.catalog), std::move(data.market_tables),
                    std::move(data.local_tables), std::move(queries));
}

std::unique_ptr<exec::PayLess> NewPayLessClient(const Bundle& bundle,
                                                exec::PayLessConfig config) {
  auto client = std::make_unique<exec::PayLess>(&bundle.catalog,
                                                bundle.market.get(), config);
  for (const auto& [name, rows] : bundle.local_tables) {
    const Status st = client->LoadLocalTable(name, rows);
    assert(st.ok());
    (void)st;
  }
  return client;
}

exec::PayLessConfig PayLessFullConfig() {
  exec::PayLessConfig config;
  config.optimizer.use_sqr = true;
  config.optimizer.use_search_reduction = true;
  config.optimizer.cost_model = core::CostModelKind::kTransactions;
  return config;
}

exec::PayLessConfig PayLessNoSqrConfig() {
  exec::PayLessConfig config = PayLessFullConfig();
  config.optimizer.use_sqr = false;
  return config;
}

exec::PayLessConfig MinimizingCallsConfig() {
  exec::PayLessConfig config;
  config.optimizer.use_sqr = false;
  config.optimizer.use_search_reduction = true;
  config.optimizer.cost_model = core::CostModelKind::kCalls;
  return config;
}

std::unique_ptr<federation::FederatedMarket> MakeFederatedMarket(
    const Bundle& bundle, const std::vector<FederatedEndpointSpec>& specs,
    uint64_t base_seed) {
  auto federation = std::make_unique<federation::FederatedMarket>(
      bundle.market.get(), base_seed);
  // Distinct market datasets in catalog (name) order; the order fixes which
  // endpoint discounts which dataset, so it must be deterministic.
  std::vector<std::string> datasets;
  for (const std::string& table : bundle.catalog.TableNames()) {
    const catalog::TableDef* def = bundle.catalog.FindTable(table);
    if (def == nullptr || def->dataset.empty()) continue;  // local table
    if (std::find(datasets.begin(), datasets.end(), def->dataset) ==
        datasets.end()) {
      datasets.push_back(def->dataset);
    }
  }
  for (size_t e = 0; e < specs.size(); ++e) {
    federation::EndpointConfig config;
    config.id = specs[e].id;
    config.fault_profile = specs[e].fault_profile;
    config.inject_faults = specs[e].inject_faults;
    for (size_t d = 0; d < datasets.size(); ++d) {
      const catalog::DatasetDef* base = bundle.catalog.FindDataset(datasets[d]);
      assert(base != nullptr);
      federation::DatasetTerms terms;
      const bool assigned = d % specs.size() == e;
      const double scale =
          assigned ? specs[e].discount_scale : specs[e].price_scale;
      terms.price_per_transaction = base->price_per_transaction * scale;
      terms.tuples_per_transaction =
          assigned ? std::max<int64_t>(
                         1, static_cast<int64_t>(
                                static_cast<double>(
                                    base->tuples_per_transaction) *
                                specs[e].discount_page_scale))
                   : base->tuples_per_transaction;
      config.menu[datasets[d]] = terms;
    }
    const Status st = federation->AddEndpoint(config);
    assert(st.ok());
    (void)st;
  }
  return federation;
}

std::unique_ptr<exec::PayLess> NewFederatedPayLessClient(
    const Bundle& bundle, federation::FederatedMarket* federation,
    exec::PayLessConfig config) {
  config.federation = federation;
  auto client = std::make_unique<exec::PayLess>(&bundle.catalog,
                                                bundle.market.get(), config);
  for (const auto& [name, rows] : bundle.local_tables) {
    const Status st = client->LoadLocalTable(name, rows);
    assert(st.ok());
    (void)st;
  }
  return client;
}

std::unique_ptr<exec::DownloadAllClient> NewDownloadAllClient(
    const Bundle& bundle) {
  auto client = std::make_unique<exec::DownloadAllClient>(&bundle.catalog,
                                                          bundle.market.get());
  for (const auto& [name, rows] : bundle.local_tables) {
    const Status st = client->LoadLocalTable(name, rows);
    assert(st.ok());
    (void)st;
  }
  return client;
}

}  // namespace payless::workload
