// Savings accounting end to end: the counterfactual (store-less, uncached)
// price is deterministic and side-effect free, the savings ledger
// reconciles (counterfactual == actual + savings, causes sum to savings)
// per tenant and per dataset under serial, concurrent and fault-storm
// execution, and repeated workloads (a range mix and the real Fig. 10a
// mix) show the savings the paper promises.
#include "obs/savings.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/payless.h"
#include "federation/market_endpoint.h"
#include "market/data_market.h"
#include "market/fault_injector.h"
#include "obs/observability.h"
#include "obs/savings_accountant.h"
#include "sql/parser.h"
#include "workload/bundle.h"

namespace payless::obs {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;
using exec::QueryReport;
using market::FaultInjector;
using market::FaultProfile;

// ---------------------------------------------------------------------------
// SavingsLedger unit behaviour.

TEST(SavingsLedgerTest, RecordAccumulatesAndReconciles) {
  SavingsLedger ledger;
  const int64_t causes_a[kNumSavingsCauses] = {40, 0, 0, 0, 0, 0, 0};
  const int64_t causes_b[kNumSavingsCauses] = {0, 10, 0, 0, -3, 0, -7};
  ledger.Record("acme", "EHR", 100, 60, causes_a);
  ledger.Record("acme", "WHW", 20, 20, causes_b);
  ledger.Record("umbrella", "EHR", 50, 10, causes_a);

  EXPECT_EQ(ledger.total_counterfactual(), 170);
  EXPECT_EQ(ledger.total_actual(), 90);
  EXPECT_EQ(ledger.total_savings(), 80);
  EXPECT_EQ(ledger.TenantCounterfactual("acme"), 120);
  EXPECT_EQ(ledger.TenantActual("acme"), 80);
  EXPECT_EQ(ledger.TenantSavings("acme"), 40);
  EXPECT_EQ(ledger.total_by_cause(SavingsCause::kStoreFullHit), 80);
  EXPECT_EQ(ledger.total_by_cause(SavingsCause::kWaste), -7);
  EXPECT_TRUE(ledger.Reconciles());

  const auto cells = ledger.TenantByDataset("acme");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells.at("EHR").savings, 40);
  EXPECT_EQ(cells.at("EHR").queries, 1);
  EXPECT_EQ(cells.at("WHW").by_cause[static_cast<int>(SavingsCause::kWaste)],
            -7);

  ledger.Reset();
  EXPECT_EQ(ledger.total_counterfactual(), 0);
  EXPECT_TRUE(ledger.Reconciles());  // vacuously
}

TEST(SavingsLedgerTest, ReconcilesDetectsCauseMismatch) {
  SavingsLedger ledger;
  // Causes sum to 30 but counterfactual - actual is 40: must NOT reconcile.
  const int64_t bad[kNumSavingsCauses] = {30, 0, 0, 0, 0, 0, 0};
  ledger.Record("t", "D", 100, 60, bad);
  EXPECT_FALSE(ledger.Reconciles());
}

TEST(SavingsLedgerTest, ToJsonCarriesTotalsTenantsAndCauses) {
  SavingsLedger ledger;
  const int64_t causes[kNumSavingsCauses] = {0, 25, 0, 0, 0, 0, 0};
  ledger.Record("acme", "EHR", 75, 50, causes);
  const std::string json = ledger.ToJson();
  EXPECT_NE(json.find("\"total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"acme\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"EHR\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sqr_harvest\":25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counterfactual\":75"), std::string::npos) << json;
}

TEST(SavingsCauseTest, EveryCauseHasAStableName) {
  EXPECT_STREQ(SavingsCauseName(SavingsCause::kStoreFullHit),
               "store_full_hit");
  EXPECT_STREQ(SavingsCauseName(SavingsCause::kWaste), "waste");
  for (int i = 0; i < kNumSavingsCauses; ++i) {
    EXPECT_NE(SavingsCauseName(static_cast<SavingsCause>(i)), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Integration: PayLess against a hosted market.

class SavingsAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"EHR", 1.0, 100}).ok());
    TableDef pollution;
    pollution.name = "Pollution";
    pollution.dataset = "EHR";
    pollution.columns = {
        ColumnDef::Free("Rank", ValueType::kInt64,
                        AttrDomain::Numeric(1, 2000)),
        ColumnDef::Output("Score", ValueType::kDouble)};
    pollution.cardinality = 2000;
    ASSERT_TRUE(cat_.RegisterTable(pollution).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t rank = 1; rank <= 2000; ++rank) {
      rows.push_back(Row{Value(rank), Value(static_cast<double>(rank) / 10)});
    }
    ASSERT_TRUE(market_->HostTable("Pollution", std::move(rows)).ok());
  }

  static constexpr const char* kRangeSql =
      "SELECT * FROM Pollution WHERE Rank >= ? AND Rank <= ?";

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
};

TEST_F(SavingsAccountingTest, SerialWorkloadReconcilesAgainstCostLedger) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);

  // A repeated-range workload: the second pass is served by the store.
  int64_t first_pass_savings = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t lo : {1, 301, 601}) {
      Result<QueryReport> r = client.QueryWithReport(
          kRangeSql, {Value(lo), Value(lo + 199)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->error.ok());
      // Every accounted query carries its own counterfactual and delta.
      EXPECT_GE(r->counterfactual_transactions, 0);
      EXPECT_EQ(r->savings_transactions,
                r->counterfactual_transactions - r->transactions_spent);
    }
    if (pass == 0) first_pass_savings = obs.savings.total_savings();
  }

  EXPECT_TRUE(obs.savings.Reconciles());
  // The savings ledger's "actual" is the cost ledger's spend, in total and
  // per dataset — the two books describe the same money.
  EXPECT_EQ(obs.savings.total_actual(), obs.ledger.total_transactions());
  EXPECT_EQ(obs.savings.TenantActual("default"),
            obs.ledger.TenantTransactions("default"));
  EXPECT_EQ(obs.savings.total_counterfactual(),
            obs.savings.total_actual() + obs.savings.total_savings());

  // The warm pass paid nothing, so cumulative savings strictly grew and
  // the growth is attributed to the semantic store.
  EXPECT_GT(obs.savings.total_savings(), first_pass_savings);
  EXPECT_GT(obs.savings.total_by_cause(SavingsCause::kStoreFullHit), 0);

  // The registry mirrors the ledger.
  EXPECT_EQ(obs.metrics.GetGauge("payless_savings_transactions")->value(),
            obs.savings.total_savings());
  EXPECT_EQ(
      obs.metrics.GetCounter("payless_counterfactual_transactions_total")
          ->value(),
      obs.savings.total_counterfactual());
}

TEST_F(SavingsAccountingTest, EightThreadsReconcile) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int64_t lo = 1 + ((t * kQueriesPerThread + i) * 131) % 1700;
        Result<QueryReport> r = client.QueryWithReport(
            kRangeSql, {Value(lo), Value(lo + 99)});
        if (!r.ok() || !r->error.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(obs.savings.Reconciles());
  EXPECT_EQ(obs.savings.total_actual(), obs.ledger.total_transactions());
  EXPECT_EQ(obs.savings.total_counterfactual(),
            obs.savings.total_actual() + obs.savings.total_savings());
}

TEST_F(SavingsAccountingTest, FaultStormReconcilesAndCountsWaste) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.retry.max_attempts = 10;
  config.retry.initial_backoff_micros = 20;
  config.retry.max_backoff_micros = 200;
  PayLess client(&cat_, market_.get(), config);

  FaultProfile profile;
  profile.transient_rate = 0.1;
  profile.lost_response_rate = 0.2;  // billed-but-undelivered: pure waste
  FaultInjector injector(profile);
  client.connector()->SetFaultInjector(&injector);
  for (int i = 0; i < 30; ++i) {
    const int64_t lo = 1 + (i * 67) % 1800;
    Result<QueryReport> r =
        client.QueryWithReport(kRangeSql, {Value(lo), Value(lo + 149)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Mid-flight failures still reconcile: the spend-so-far (waste
    // included) was recorded before the report was returned. The report
    // agrees with its own breakdown and its savings.
    int64_t by_dataset = 0;
    for (const auto& [dataset, tx] : r->transactions_by_dataset) {
      by_dataset += tx;
    }
    EXPECT_EQ(r->transactions_spent, by_dataset);
    if (r->counterfactual_transactions >= 0) {
      EXPECT_EQ(r->savings_transactions,
                r->counterfactual_transactions - r->transactions_spent);
    }
  }
  client.connector()->SetFaultInjector(nullptr);

  EXPECT_TRUE(obs.savings.Reconciles());
  EXPECT_EQ(obs.savings.total_actual(), obs.ledger.total_transactions());
  // 20% lost responses over 30 paid queries must have produced waste, and
  // waste is accounted as NEGATIVE savings.
  EXPECT_GT(client.connector()->retry_stats().wasted_transactions, 0);
  EXPECT_LT(obs.savings.total_by_cause(SavingsCause::kWaste), 0);
  EXPECT_EQ(obs.savings.total_by_cause(SavingsCause::kWaste),
            -client.connector()->retry_stats().wasted_transactions);
}

TEST_F(SavingsAccountingTest, CounterfactualIsDeterministicAcrossThreads) {
  // Pricing only reads the statistics (nothing executes), so eight
  // concurrent pricers must agree bit for bit.
  stats::StatsRegistry stats(cat_);
  SavingsAccountant accountant(&cat_, &stats, {{"", &cat_}});
  const core::OptimizerOptions options;

  Result<sql::SelectStmt> stmt = sql::Parse(kRangeSql);
  ASSERT_TRUE(stmt.ok());
  Result<sql::BoundQuery> bound =
      sql::Bind(*stmt, cat_, {Value(int64_t{100}), Value(int64_t{400})});
  ASSERT_TRUE(bound.ok());

  const core::Counterfactual reference = accountant.Price(*bound, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(reference.total, 0);
  ASSERT_EQ(reference.by_dataset.count("EHR"), 1u);

  constexpr int kThreads = 8;
  std::vector<core::Counterfactual> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      results[static_cast<size_t>(t)] = accountant.Price(*bound, options);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const core::Counterfactual& cf : results) {
    ASSERT_TRUE(cf.ok());
    EXPECT_EQ(cf.total, reference.total);
    EXPECT_EQ(cf.by_dataset, reference.by_dataset);
    EXPECT_EQ(cf.signature, reference.signature);
  }
}

TEST_F(SavingsAccountingTest, PlanCacheHitAndMissPathsPriceIdentically) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.enable_plan_cache = true;
  PayLess client(&cat_, market_.get(), config);

  const std::vector<Value> params = {Value(int64_t{50}), Value(int64_t{249})};
  Result<QueryReport> miss = client.QueryWithReport(kRangeSql, params);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(miss->error.ok());
  EXPECT_EQ(miss->counters.plan_cache_misses, 1u);
  EXPECT_GT(miss->counters.evaluated_plans, 0u);
  ASSERT_GE(miss->counterfactual_transactions, 0);

  // Second run: template hit. The counterfactual rode in the template, so
  // both paths report the identical price.
  Result<QueryReport> hit = client.QueryWithReport(kRangeSql, params);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->error.ok());
  EXPECT_EQ(hit->counters.plan_cache_hits, 1u);
  // A hit runs no optimization, so it reports no planning work.
  EXPECT_EQ(hit->counters.evaluated_plans, 0u);
  EXPECT_EQ(hit->counters.enumerated_bboxes, 0u);
  EXPECT_EQ(hit->counterfactual_transactions,
            miss->counterfactual_transactions);
  EXPECT_TRUE(obs.savings.Reconciles());
}

TEST(SavingsCauseTest, FullConsistencyPricesTheCounterfactualWithoutSqr) {
  // Alpha declares 2,000 keys but hosts only 1..1000. Uniform statistics
  // estimate 200 rows (40 tx) for keys 901..1100; the market returns 100
  // (20 tx). Both plans are one plain access, and only the weak client
  // plans it with SQR, so its saving is an SQR harvest. Under full
  // consistency neither the live plan nor its counterfactual uses SQR:
  // the plans match, and the 20 tx are an estimate correction.
  catalog::Catalog cat;
  ASSERT_TRUE(cat.RegisterDataset(DatasetDef{"ALPHA", 1.0, 5}).ok());
  TableDef alpha;
  alpha.name = "Alpha";
  alpha.dataset = "ALPHA";
  alpha.columns = {ColumnDef::Free("Key", ValueType::kInt64,
                                   AttrDomain::Numeric(1, 2000)),
                   ColumnDef::Output("Val", ValueType::kDouble)};
  alpha.cardinality = 2000;
  ASSERT_TRUE(cat.RegisterTable(alpha).ok());
  market::DataMarket market(&cat);
  std::vector<Row> rows;
  for (int64_t key = 1; key <= 1000; ++key) {
    rows.push_back(Row{Value(key), Value(static_cast<double>(key))});
  }
  ASSERT_TRUE(market.HostTable("Alpha", std::move(rows)).ok());

  for (const exec::ConsistencyLevel level :
       {exec::ConsistencyLevel::kWeak, exec::ConsistencyLevel::kFull}) {
    Observability obs;
    PayLessConfig config;
    config.observability = &obs;
    config.consistency = level;
    config.stats_kind = stats::StatsKind::kUniform;
    PayLess client(&cat, &market, config);
    const Result<QueryReport> r = client.QueryWithReport(
        "SELECT Val FROM Alpha WHERE Key >= ? AND Key <= ?",
        {Value(int64_t{901}), Value(int64_t{1100})});
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_TRUE(r->error.ok()) << r->error.message();
    EXPECT_EQ(r->transactions_spent, 20);
    EXPECT_EQ(r->counterfactual_transactions, 40);
    const SavingsCause expected = level == exec::ConsistencyLevel::kWeak
                                      ? SavingsCause::kSqrHarvest
                                      : SavingsCause::kEstimate;
    EXPECT_EQ(obs.savings.total_by_cause(expected), 20)
        << SavingsCauseName(expected);
    EXPECT_EQ(obs.savings.total_by_cause(SavingsCause::kLearnedSwitch), 0);
    EXPECT_TRUE(obs.savings.Reconciles());
  }
}

TEST_F(SavingsAccountingTest, WhatIfPassNeitherBillsNorMutatesTheStore) {
  // Twin clients, same market, same queries: accounting ON must change
  // neither the billing nor the store contents relative to accounting OFF.
  Observability obs_on, obs_off;
  PayLessConfig on, off;
  on.observability = &obs_on;
  off.observability = &obs_off;
  off.enable_savings_accounting = false;
  PayLess with(&cat_, market_.get(), on);
  PayLess without(&cat_, market_.get(), off);

  for (int64_t lo : {1, 501, 1, 1001}) {
    Result<QueryReport> a =
        with.QueryWithReport(kRangeSql, {Value(lo), Value(lo + 99)});
    Result<QueryReport> b =
        without.QueryWithReport(kRangeSql, {Value(lo), Value(lo + 99)});
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->transactions_spent, b->transactions_spent);
    // Accounting off: the report says "not accounted", not zero.
    EXPECT_EQ(b->counterfactual_transactions, -1);
  }
  EXPECT_EQ(with.meter().total_transactions(),
            without.meter().total_transactions());
  EXPECT_EQ(with.store().TotalStoredRows(), without.store().TotalStoredRows());
  // The disabled client recorded nothing into its savings ledger.
  EXPECT_EQ(obs_off.savings.total_counterfactual(), 0);
  EXPECT_GT(obs_on.savings.total_counterfactual(), 0);
}

TEST_F(SavingsAccountingTest, ExplainAnalyzeRendersSavingsFooter) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);

  // Warm the store so the ANALYZE run actually saves something.
  ASSERT_TRUE(
      client.Query(kRangeSql, {Value(int64_t{1}), Value(int64_t{200})}).ok());
  Result<QueryReport> r = client.QueryWithReport(
      "EXPLAIN ANALYZE SELECT * FROM Pollution WHERE Rank >= 1 AND "
      "Rank <= 200");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->error.ok());
  EXPECT_NE(r->plan_text.find("counterfactual: "), std::string::npos)
      << r->plan_text;
  EXPECT_NE(r->plan_text.find("saved: "), std::string::npos) << r->plan_text;
}

TEST_F(SavingsAccountingTest, RepeatedRealWorkloadSavesEveryWarmRound) {
  // The Fig. 10a query mix replayed three times through one client. Round
  // 1 is cold: spend tracks the counterfactual and savings hover near zero
  // (estimate corrections can push them slightly negative). Every later
  // round re-asks questions the store already paid for, so it must save
  // and must spend less than the cold round.
  workload::RealDataOptions options;
  options.scale = 0.04;
  options.seed = 42;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/4,
                                               /*query_seed=*/1);
  auto client =
      workload::NewPayLessClient(*bundle, workload::PayLessFullConfig());

  constexpr int kRounds = 3;
  int64_t spent[kRounds] = {};
  int64_t saved[kRounds] = {};
  for (int round = 0; round < kRounds; ++round) {
    const int64_t before = client->meter().total_transactions();
    for (const workload::QueryInstance& query : bundle->queries) {
      Result<QueryReport> r = client->QueryWithReport(query.sql, query.params);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->error.ok()) << r->error.ToString();
      ASSERT_GE(r->counterfactual_transactions, 0) << query.sql;
      saved[round] += r->savings_transactions;
    }
    spent[round] = client->meter().total_transactions() - before;
  }
  for (int round = 1; round < kRounds; ++round) {
    EXPECT_GT(saved[round], 0) << "round " << round + 1;
    EXPECT_LT(spent[round], spent[0]) << "round " << round + 1;
  }
  const SavingsLedger& ledger = client->observability()->savings;
  EXPECT_GT(ledger.total_savings(), 0);
  EXPECT_TRUE(ledger.Reconciles());
}

// ---------------------------------------------------------------------------
// Federation: the counterfactual becomes the cheapest SINGLE-market plan
// and every (tenant, dataset, market) cell must still close exactly.

/// Two endpoints selling `market`'s EHR: "east" on double pages (cheaper
/// in transactions), "west" at catalog terms.
std::unique_ptr<federation::FederatedMarket> NewEhrFederation(
    const market::DataMarket* market) {
  auto federation = std::make_unique<federation::FederatedMarket>(market, 42);
  federation::EndpointConfig east;
  east.id = "east";
  east.menu["EHR"] = federation::DatasetTerms{1.0, 200};
  EXPECT_TRUE(federation->AddEndpoint(east).ok());
  federation::EndpointConfig west;
  west.id = "west";
  west.menu["EHR"] = federation::DatasetTerms{1.0, 100};
  EXPECT_TRUE(federation->AddEndpoint(west).ok());
  return federation;
}

/// The exact-closure assertions shared by the serial and threaded runs:
/// every cell reconciles, the per-market actuals sum to the cell's actual,
/// and the grand totals equal the cost ledger and the endpoint meters.
void ExpectFederatedClosure(const Observability& obs, PayLess* client) {
  EXPECT_TRUE(obs.savings.Reconciles());
  int64_t cells_actual = 0;
  for (const auto& [dataset, cell] : obs.savings.TenantByDataset("default")) {
    EXPECT_EQ(cell.counterfactual, cell.actual + cell.savings) << dataset;
    int64_t by_market = 0;
    for (const auto& [site, txn] : cell.actual_by_market) by_market += txn;
    EXPECT_EQ(by_market, cell.actual) << dataset;
    cells_actual += cell.actual;
  }
  EXPECT_EQ(cells_actual, obs.savings.total_actual());
  EXPECT_EQ(obs.savings.total_actual(), obs.ledger.total_transactions());
  auto* router = client->router();
  ASSERT_NE(router, nullptr);
  EXPECT_EQ(obs.ledger.total_transactions(),
            router->TotalMeteredTransactions());
}

TEST_F(SavingsAccountingTest, FederatedSerialWorkloadClosesPerMarketCell) {
  auto federation = NewEhrFederation(market_.get());
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.federation = federation.get();
  PayLess client(&cat_, market_.get(), config);

  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t lo : {1, 301, 601, 901, 1201}) {
      Result<QueryReport> r = client.QueryWithReport(
          kRangeSql, {Value(lo), Value(lo + 199)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->error.ok()) << r->error.ToString();
    }
  }
  ExpectFederatedClosure(obs, &client);
  // Every purchase happened at the cheap buy-site.
  for (const auto& [dataset, cell] : obs.savings.TenantByDataset("default")) {
    for (const auto& [site, txn] : cell.actual_by_market) {
      EXPECT_EQ(site, "east") << dataset;
      EXPECT_GT(txn, 0);
    }
  }
}

TEST_F(SavingsAccountingTest, FederatedEightThreadsClosePerMarketCell) {
  auto federation = NewEhrFederation(market_.get());
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.federation = federation.get();
  PayLess client(&cat_, market_.get(), config);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int64_t lo = 1 + ((t * kQueriesPerThread + i) * 131) % 1700;
        Result<QueryReport> r = client.QueryWithReport(
            kRangeSql, {Value(lo), Value(lo + 99)});
        if (!r.ok() || !r->error.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  ExpectFederatedClosure(obs, &client);
}

}  // namespace
}  // namespace payless::obs
