// Multi-query optimization (§7): deferred batches merge overlapping market
// footprints into shared prefetches.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/payless.h"
#include "exec/reference.h"
#include "market/fault_injector.h"
#include "workload/bundle.h"

namespace payless::exec {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
    TableDef t;
    t.name = "Readings";
    t.dataset = "D";
    t.columns = {
        ColumnDef::Free("Pos", ValueType::kInt64,
                        AttrDomain::Numeric(0, 9999)),
        ColumnDef::Output("Val", ValueType::kDouble)};
    t.cardinality = 2000;
    ASSERT_TRUE(cat_.RegisterTable(t).ok());
    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t p = 0; p < 10000; p += 5) {  // 2000 rows, every 5th slot
      rows.push_back(Row{Value(p), Value(static_cast<double>(p))});
    }
    ASSERT_TRUE(market_->HostTable("Readings", std::move(rows)).ok());

    // A table whose BOUND categorical attribute makes some merged hulls
    // inexpressible as one REST call (a hull spanning both categories
    // leaves the bound attribute unconstrained).
    TableDef sensors;
    sensors.name = "Sensors";
    sensors.dataset = "D";
    sensors.columns = {
        ColumnDef::Bound("C", ValueType::kString,
                         AttrDomain::Categorical({"a", "b"})),
        ColumnDef::Free("Pos", ValueType::kInt64,
                        AttrDomain::Numeric(0, 999)),
        ColumnDef::Output("Val", ValueType::kDouble)};
    sensors.cardinality = 200;
    ASSERT_TRUE(cat_.RegisterTable(sensors).ok());
    std::vector<Row> sensor_rows;
    for (int64_t p = 0; p < 1000; p += 10) {
      sensor_rows.push_back(Row{Value("a"), Value(p), Value(p * 1.0)});
      sensor_rows.push_back(Row{Value("b"), Value(p), Value(p * 2.0)});
    }
    ASSERT_TRUE(market_->HostTable("Sensors", std::move(sensor_rows)).ok());
  }

  static std::vector<BatchQuery> OverlappingBatch() {
    // Six queries over interleaved narrow ranges within [1000, 1960]:
    // individually 6 calls of 1 page each; merged, one ~2-page fetch.
    std::vector<BatchQuery> batch;
    for (int64_t i = 0; i < 6; ++i) {
      const int64_t lo = 1000 + i * 160;
      batch.push_back(BatchQuery{
          "SELECT * FROM Readings WHERE Pos >= " + std::to_string(lo) +
              " AND Pos <= " + std::to_string(lo + 150),
          {}});
    }
    return batch;
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
};

TEST_F(BatchTest, BatchNeverCostsMoreThanSequential) {
  PayLess sequential(&cat_, market_.get(), PayLessConfig{});
  for (const BatchQuery& q : OverlappingBatch()) {
    ASSERT_TRUE(sequential.Query(q.sql, q.params).ok());
  }
  PayLess batched(&cat_, market_.get(), PayLessConfig{});
  Result<BatchReport> report = batched.QueryBatch(OverlappingBatch());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(report->transactions_spent,
            sequential.meter().total_transactions());
}

TEST_F(BatchTest, BatchResultsMatchSequentialResults) {
  PayLess sequential(&cat_, market_.get(), PayLessConfig{});
  PayLess batched(&cat_, market_.get(), PayLessConfig{});
  const std::vector<BatchQuery> batch = OverlappingBatch();
  Result<BatchReport> report = batched.QueryBatch(batch);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->reports.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<storage::Table> expected =
        sequential.Query(batch[i].sql, batch[i].params);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(SameResult(report->reports[i].result, *expected))
        << batch[i].sql;
  }
}

TEST_F(BatchTest, MergesOverlappingFootprints) {
  PayLess batched(&cat_, market_.get(), PayLessConfig{});
  Result<BatchReport> report = batched.QueryBatch(OverlappingBatch());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->merged_groups, 1u);
  EXPECT_GT(report->prefetch_transactions, 0);
}

TEST_F(BatchTest, DisjointBatchDoesNotForceMerging) {
  // Two far-apart single-page queries: the hull spans ~half the table, so
  // merging must NOT happen and the cost equals sequential.
  std::vector<BatchQuery> batch = {
      BatchQuery{"SELECT * FROM Readings WHERE Pos >= 0 AND Pos <= 400", {}},
      BatchQuery{
          "SELECT * FROM Readings WHERE Pos >= 9000 AND Pos <= 9400", {}},
  };
  PayLess sequential(&cat_, market_.get(), PayLessConfig{});
  for (const BatchQuery& q : batch) {
    ASSERT_TRUE(sequential.Query(q.sql, q.params).ok());
  }
  PayLess batched(&cat_, market_.get(), PayLessConfig{});
  Result<BatchReport> report = batched.QueryBatch(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_spent,
            sequential.meter().total_transactions());
}

TEST_F(BatchTest, InexpressibleMergedHullIsCountedNotSilentlySkipped) {
  // Two overlapping footprints on different values of the bound categorical
  // attribute: the merged hull spans the whole {a, b} domain, which no
  // single REST call can express (the bound attribute would be
  // unconstrained). The prefetch must SKIP the hull — visibly, via
  // prefetch_skipped_calls — and the queries must still answer correctly
  // through their own per-query calls in phase 3.
  const std::vector<BatchQuery> batch = {
      BatchQuery{
          "SELECT Val FROM Sensors WHERE C = 'a' AND Pos >= 100 AND "
          "Pos <= 300",
          {}},
      BatchQuery{
          "SELECT Val FROM Sensors WHERE C = 'b' AND Pos >= 120 AND "
          "Pos <= 320",
          {}},
  };
  PayLess sequential(&cat_, market_.get(), PayLessConfig{});
  std::vector<storage::Table> expected;
  for (const BatchQuery& q : batch) {
    Result<storage::Table> r = sequential.Query(q.sql, q.params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  PayLess batched(&cat_, market_.get(), PayLessConfig{});
  Result<BatchReport> report = batched.QueryBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->prefetch_skipped_calls, 1u);
  EXPECT_EQ(report->merged_groups, 0u);  // nothing issuable was merged
  ASSERT_EQ(report->reports.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameResult(report->reports[i].result, expected[i]))
        << batch[i].sql;
  }
  EXPECT_EQ(report->transactions_spent,
            sequential.meter().total_transactions());
}

TEST_F(BatchTest, BudgetEvictsOnlyAfterTheWholeBatch) {
  // A one-byte budget still lets every query read the prefetched hull: the
  // placement pass runs once after the batch, not between its queries.
  PayLess unbounded(&cat_, market_.get(), PayLessConfig{});
  PayLessConfig config;
  config.placement_capacity_bytes = 1;
  PayLess budget(&cat_, market_.get(), config);
  Result<BatchReport> kept = unbounded.QueryBatch(OverlappingBatch());
  Result<BatchReport> evicted = budget.QueryBatch(OverlappingBatch());
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
  EXPECT_GE(evicted->merged_groups, 1u);
  EXPECT_EQ(evicted->transactions_spent, kept->transactions_spent);
  for (size_t i = 0; i < kept->reports.size(); ++i) {
    EXPECT_TRUE(
        SameResult(evicted->reports[i].result, kept->reports[i].result));
  }
  for (const auto& t : budget.store().SnapshotStats()) {
    EXPECT_EQ(t.pooled_rows, 0u) << t.table;
  }
}

TEST_F(BatchTest, PrefetchMeetsTheTenantHardCap) {
  // A tenant capped at 1 transaction. Gate 2 refuses a 2-transaction query
  // before it spends anything; the batch's 2-transaction prefetch hull must
  // meet the same cap. It is refused, so the first query buys its own page
  // and the second is rejected at its own gate.
  obs::Observability obs;
  obs::TenantBudget budget;
  budget.hard_cap_transactions = 1;
  obs.governor.SetBudget("default", budget);
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);

  const Result<QueryReport> wide = client.QueryWithReport(
      "SELECT * FROM Readings WHERE Pos >= 1000 AND Pos <= 1995");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), Status::Code::kBudgetExceeded);
  EXPECT_EQ(obs.ledger.TenantTransactions("default"), 0);

  const Result<BatchReport> report = client.QueryBatch(OverlappingBatch());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), Status::Code::kBudgetExceeded);
  EXPECT_EQ(obs.ledger.TenantTransactions("default"), 1);
  EXPECT_EQ(obs.ledger.total_transactions(),
            client.meter().total_transactions());
  // The refused prefetch and the refused second query, after the wide one.
  EXPECT_EQ(obs.governor.rejections("default"), 3);
}

TEST_F(BatchTest, PrefetchSpendFeedsTheRateWindow) {
  // A window cap far above the batch's spend: nothing is refused, and the
  // window holds everything the tenant was billed, prefetch included —
  // also when a prefetch response is lost after the seller billed it.
  for (const double lost_response_rate : {0.0, 0.2}) {
    SCOPED_TRACE(lost_response_rate);
    obs::Observability obs;
    obs::TenantBudget budget;
    budget.window_cap_transactions = 1000;
    budget.window_micros = 3'600'000'000;  // nothing ages out mid-test
    obs.governor.SetBudget("default", budget);
    PayLessConfig config;
    config.observability = &obs;
    PayLess client(&cat_, market_.get(), config);
    market::FaultProfile faults;
    faults.lost_response_rate = lost_response_rate;
    faults.seed = 1;  // one prefetch response is lost, then retried
    market::FaultInjector injector(faults);
    client.connector()->SetFaultInjector(&injector);

    const Result<BatchReport> report = client.QueryBatch(OverlappingBatch());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->prefetch_transactions, 0);
    EXPECT_EQ(obs.governor.WindowSpend("default"),
              obs.ledger.TenantTransactions("default"));
    EXPECT_EQ(obs.ledger.TenantTransactions("default"),
              report->transactions_spent);
    // The queries ran from the store, so every billed transaction, the
    // lost ones too, was a prefetch's.
    EXPECT_EQ(report->prefetch_transactions, report->transactions_spent);
    EXPECT_EQ(client.connector()->retry_stats().wasted_transactions > 0,
              lost_response_rate > 0);
  }
}

TEST_F(BatchTest, PrefetchFailsOverLikeAnyAccess) {
  // Two sellers of D; the cheaper one drops every call. Each merged hull
  // is bought there first and fails over to the other seller, exactly as
  // a query's access would, so the queries then run from the store.
  federation::FederatedMarket federation(market_.get());
  federation::EndpointConfig cheap;
  cheap.id = "cheap";
  cheap.menu["D"] = federation::DatasetTerms{0.5, 100};
  cheap.inject_faults = true;
  cheap.fault_profile.transient_rate = 1.0;
  ASSERT_TRUE(federation.AddEndpoint(cheap).ok());
  federation::EndpointConfig dear;
  dear.id = "dear";
  ASSERT_TRUE(federation.AddEndpoint(dear).ok());
  obs::Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.federation = &federation;
  PayLess client(&cat_, market_.get(), config);

  const std::vector<BatchQuery> batch = OverlappingBatch();
  const Result<BatchReport> report = client.QueryBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged_groups, 2u);
  EXPECT_EQ(report->prefetch_failed_calls, 0u);
  EXPECT_EQ(report->prefetch_transactions, 2);
  EXPECT_EQ(report->transactions_spent, 2);
  const federation::EndpointRouter& router = *client.router();
  EXPECT_EQ(router.connector(0).meter().total_transactions(), 0);  // cheap
  EXPECT_EQ(router.connector(1).meter().total_transactions(), 2);  // dear
  EXPECT_EQ(obs.ledger.total_transactions(),
            router.TotalMeteredTransactions());
  const storage::Database no_local_tables;
  ASSERT_EQ(report->reports.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Result<storage::Table> want = ReferenceEvaluate(
        cat_, *market_, no_local_tables, batch[i].sql, batch[i].params);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(SameResult(report->reports[i].result, *want)) << batch[i].sql;
  }
}

TEST_F(BatchTest, EmptyBatch) {
  PayLess client(&cat_, market_.get(), PayLessConfig{});
  Result<BatchReport> report = client.QueryBatch({});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->reports.empty());
  EXPECT_EQ(report->transactions_spent, 0);
}

TEST_F(BatchTest, BatchParseErrorPropagates) {
  PayLess client(&cat_, market_.get(), PayLessConfig{});
  EXPECT_FALSE(client.QueryBatch({BatchQuery{"SELEC oops", {}}}).ok());
}

TEST_F(BatchTest, BatchWithSqrDisabledStillAnswers) {
  PayLessConfig config;
  config.optimizer.use_sqr = false;
  PayLess client(&cat_, market_.get(), config);
  Result<BatchReport> report = client.QueryBatch(OverlappingBatch());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->merged_groups, 0u);  // no store: nothing to merge into
  EXPECT_EQ(report->reports.size(), 6u);
}

TEST(BatchPrefetchTest, RealWorkloadWindowsBillDeterministically) {
  // Two fresh clients run the real workload in the same windows of four
  // batched queries. With serial calls nothing in the prefetch path may
  // depend on timing: both bill the same cells, and each ledger equals its
  // meter.
  workload::RealDataOptions options;
  options.scale = 0.04;
  options.seed = 42;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/2,
                                               /*query_seed=*/1);
  constexpr size_t kWindow = 4;
  const auto run = [&bundle](size_t* merged_groups) {
    PayLessConfig config = workload::PayLessFullConfig();
    config.max_parallel_calls = 1;
    auto client = workload::NewPayLessClient(*bundle, config);
    const std::vector<workload::QueryInstance>& queries = bundle->queries;
    for (size_t i = 0; i < queries.size(); i += kWindow) {
      std::vector<BatchQuery> batch;
      for (size_t k = i; k < std::min(queries.size(), i + kWindow); ++k) {
        batch.push_back(BatchQuery{queries[k].sql, queries[k].params});
      }
      const Result<BatchReport> report = client->QueryBatch(batch);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      if (report.ok()) *merged_groups += report->merged_groups;
    }
    const obs::CostLedger& ledger = client->observability()->ledger;
    EXPECT_GT(ledger.total_transactions(), 0);
    EXPECT_EQ(ledger.total_transactions(),
              client->meter().total_transactions());
    EXPECT_DOUBLE_EQ(ledger.total_price(), client->meter().total_price());
    return ledger.TenantByDataset(client->tenant());
  };
  size_t first_merged = 0;
  size_t second_merged = 0;
  const std::map<std::string, obs::CostCell> first = run(&first_merged);
  const std::map<std::string, obs::CostCell> second = run(&second_merged);
  // Some window shares a prefetch, so the prefetch path bills.
  EXPECT_GT(first_merged, 0u);
  EXPECT_EQ(first_merged, second_merged);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [dataset, cell] : first) {
    ASSERT_EQ(second.count(dataset), 1u) << dataset;
    const obs::CostCell& again = second.at(dataset);
    EXPECT_EQ(cell.transactions, again.transactions) << dataset;
    EXPECT_EQ(cell.price, again.price) << dataset;
    EXPECT_EQ(cell.calls, again.calls) << dataset;
    EXPECT_EQ(cell.wasted_transactions, again.wasted_transactions) << dataset;
    EXPECT_EQ(cell.by_market, again.by_market) << dataset;
  }
}

}  // namespace
}  // namespace payless::exec
