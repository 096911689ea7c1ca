// Federation tests: multi-market registry, buy-site-aware optimization,
// routed execution and slab placement.
//
// The invariants under test:
//   1. endpoint fault streams are sub-seeded deterministically from the
//      federation base seed + endpoint id (SplitMix64) — distinct per
//      endpoint, reproducible per (seed, id);
//   2. the optimizer prices every market access against each endpoint's
//      menu and the chosen buy-site is visible in EXPLAIN;
//   3. a cross-dataset query whose datasets are cheapest at DIFFERENT
//      endpoints beats every single-market plan — the edge is attributed
//      to the federation_routing savings cause and the savings ledger
//      still reconciles, with per-market actuals matching the cost
//      ledger and every endpoint's own billing meter;
//   4. the placement policy, run after every query, evicts the
//      cheapest-to-re-buy slabs first under a capacity budget; the
//      decision (not the pre-eviction state) is what a durable restart
//      recovers, re-reading evicted data re-buys it, and a budget-bound
//      client (serial or concurrent) still returns the oracle's rows;
//   5. /markets serves the live federation state over HTTP;
//   6. on the real workload, buy-site routing beats every single market,
//      and failover under faults re-delivers no call region twice;
//   7. a federated client's connector() and meter() are endpoint 0's,
//      the ones its queries buy through.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"
#include "exec/reference.h"
#include "federation/market_endpoint.h"
#include "federation/placement.h"
#include "obs/http_exposition.h"
#include "obs/observability.h"
#include "workload/bundle.h"

namespace payless::federation {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;

constexpr int64_t kKeys = 2000;

/// Two market datasets with OPPOSITE terms across two endpoints: "east"
/// sells ALPHA at half price on double pages, "west" does the same for
/// BETA. A query joining both therefore has no single cheapest market —
/// the federated plan must split its buys to win.
class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"ALPHA", 1.0, 5}).ok());
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"BETA", 1.0, 5}).ok());

    TableDef alpha;
    alpha.name = "Alpha";
    alpha.dataset = "ALPHA";
    alpha.columns = {ColumnDef::Free("Key", ValueType::kInt64,
                                     AttrDomain::Numeric(1, kKeys)),
                     ColumnDef::Output("Val", ValueType::kDouble)};
    alpha.cardinality = kKeys;
    ASSERT_TRUE(cat_.RegisterTable(alpha).ok());

    TableDef beta;
    beta.name = "Beta";
    beta.dataset = "BETA";
    beta.columns = {ColumnDef::Free("Key", ValueType::kInt64,
                                    AttrDomain::Numeric(1, kKeys)),
                    ColumnDef::Output("Cost", ValueType::kDouble)};
    beta.cardinality = kKeys;
    ASSERT_TRUE(cat_.RegisterTable(beta).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> alpha_rows, beta_rows;
    for (int64_t k = 1; k <= kKeys; ++k) {
      alpha_rows.push_back(Row{Value(k), Value(static_cast<double>(k) * 2.0)});
      beta_rows.push_back(Row{Value(k), Value(static_cast<double>(k) + 0.5)});
    }
    ASSERT_TRUE(market_->HostTable("Alpha", std::move(alpha_rows)).ok());
    ASSERT_TRUE(market_->HostTable("Beta", std::move(beta_rows)).ok());

    federation_ =
        std::make_unique<FederatedMarket>(market_.get(), /*base_seed=*/42);
    EndpointConfig east;
    east.id = "east";
    east.menu["ALPHA"] = DatasetTerms{0.5, 10};  // discounted, bigger pages
    east.menu["BETA"] = DatasetTerms{1.0, 5};
    ASSERT_TRUE(federation_->AddEndpoint(east).ok());
    EndpointConfig west;
    west.id = "west";
    west.menu["ALPHA"] = DatasetTerms{1.0, 5};
    west.menu["BETA"] = DatasetTerms{1.0, 10};
    ASSERT_TRUE(federation_->AddEndpoint(west).ok());
  }

  std::unique_ptr<PayLess> NewClient(PayLessConfig config = {}) {
    config.federation = federation_.get();
    return std::make_unique<PayLess>(&cat_, market_.get(), config);
  }

  // Both tables plain-scanned (Key is Free: no bind join exists) and
  // joined locally — each access picks its own buy-site.
  static constexpr const char* kJoinSql =
      "SELECT Val, Cost FROM Alpha, Beta WHERE Alpha.Key = Beta.Key AND "
      "Alpha.Key >= ? AND Alpha.Key <= ? AND Beta.Key >= ? AND Beta.Key <= ?";

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
  std::unique_ptr<FederatedMarket> federation_;
};

TEST_F(FederationTest, SubSeedIsDeterministicAndPerEndpoint) {
  MarketEndpoint* east = federation_->endpoint("east");
  MarketEndpoint* west = federation_->endpoint("west");
  ASSERT_NE(east, nullptr);
  ASSERT_NE(west, nullptr);
  EXPECT_EQ(east->sub_seed(), FederatedMarket::SubSeed(42, "east"));
  EXPECT_EQ(west->sub_seed(), FederatedMarket::SubSeed(42, "west"));
  EXPECT_NE(east->sub_seed(), west->sub_seed());
  // A different base seed moves every endpoint's stream.
  EXPECT_NE(FederatedMarket::SubSeed(43, "east"),
            FederatedMarket::SubSeed(42, "east"));
  // Faults were not requested, so no injector is attached.
  EXPECT_EQ(east->injector(), nullptr);
}

TEST_F(FederationTest, DuplicateAndUnknownEndpointsAreRejected) {
  EndpointConfig dup;
  dup.id = "east";
  dup.menu["ALPHA"] = DatasetTerms{1.0, 5};
  EXPECT_FALSE(federation_->AddEndpoint(dup).ok());
  EndpointConfig unknown;
  unknown.id = "north";
  unknown.menu["GAMMA"] = DatasetTerms{1.0, 5};
  EXPECT_FALSE(federation_->AddEndpoint(unknown).ok());
}

TEST_F(FederationTest, ExplainRendersTheChosenBuySites) {
  auto client = NewClient();
  const auto text = client->ExplainText(
      kJoinSql, {Value(int64_t{1}), Value(kKeys), Value(int64_t{1}),
                 Value(kKeys)});
  ASSERT_TRUE(text.ok()) << text.status().message();
  EXPECT_NE(text->find("Alpha @east"), std::string::npos) << *text;
  EXPECT_NE(text->find("Beta @west"), std::string::npos) << *text;
}

TEST_F(FederationTest, FederatedPlanBeatsEverySingleMarketAndReconciles) {
  obs::Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  auto client = NewClient(config);

  const auto r = client->QueryWithReport(
      kJoinSql, {Value(int64_t{1}), Value(kKeys), Value(int64_t{1}),
                 Value(kKeys)});
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(r->error.ok()) << r->error.message();
  EXPECT_EQ(r->result.rows().size(), static_cast<size_t>(kKeys));

  // ALPHA pages at 10 on east (200 base pages -> 100), BETA pages at 10 on
  // west: the split plan spends 200 transactions where the best single
  // market bills 300.
  EXPECT_GT(r->savings_transactions, 0);
  EXPECT_TRUE(obs.savings.Reconciles());
  EXPECT_GT(obs.savings.total_by_cause(obs::SavingsCause::kFederationRouting),
            0);

  // Billing closes end to end: savings "actual" == cost ledger == the sum
  // of both endpoints' own meters, and both endpoints were actually paid.
  auto* router = client->router();
  ASSERT_NE(router, nullptr);
  EXPECT_EQ(obs.savings.total_actual(), obs.ledger.total_transactions());
  EXPECT_EQ(obs.ledger.total_transactions(),
            router->TotalMeteredTransactions());
  int64_t east_txn = 0, west_txn = 0;
  for (size_t i = 0; i < federation_->num_endpoints(); ++i) {
    const int64_t txn = router->connector(i)->meter().total_transactions();
    if (router->endpoint_id(i) == "east") east_txn = txn;
    if (router->endpoint_id(i) == "west") west_txn = txn;
  }
  EXPECT_GT(east_txn, 0);
  EXPECT_GT(west_txn, 0);

  // Per-market actuals in the savings cells split exactly along the
  // endpoint meters.
  int64_t cell_east = 0, cell_west = 0;
  for (const auto& [dataset, cell] : obs.savings.TenantByDataset("default")) {
    for (const auto& [site, txn] : cell.actual_by_market) {
      if (site == "east") cell_east += txn;
      if (site == "west") cell_west += txn;
    }
  }
  EXPECT_EQ(cell_east, east_txn);
  EXPECT_EQ(cell_west, west_txn);
}

TEST_F(FederationTest, PlanCacheHitKeepsTheCounterfactualsMarket) {
  // Full consistency reuses nothing from the store, so the repeat buys
  // again through the cached plan. Both runs bill 400 tx against the
  // 600-tx single-market baseline (east, the first of two equal
  // endpoints), and the hit must book its routing edge like the miss.
  obs::Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.consistency = exec::ConsistencyLevel::kFull;
  auto client = NewClient(config);

  const std::vector<Value> params = {Value(int64_t{1}), Value(kKeys),
                                     Value(int64_t{1}), Value(kKeys)};
  int64_t routing[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    const int64_t before =
        obs.savings.total_by_cause(obs::SavingsCause::kFederationRouting);
    const auto r = client->QueryWithReport(kJoinSql, params);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_TRUE(r->error.ok()) << r->error.message();
    EXPECT_EQ(r->counters.plan_cache_hits, run == 0 ? 0u : 1u);
    EXPECT_EQ(r->transactions_spent, 400);
    EXPECT_EQ(r->counterfactual_transactions, 600);
    routing[run] =
        obs.savings.total_by_cause(obs::SavingsCause::kFederationRouting) -
        before;
  }
  EXPECT_EQ(routing[0], 200);
  EXPECT_EQ(routing[1], routing[0]);
  EXPECT_TRUE(obs.savings.Reconciles());
}

TEST_F(FederationTest, RouterRoutesCheapestAndTracksPerEndpointCalls) {
  auto client = NewClient();
  auto* router = client->router();
  ASSERT_NE(router, nullptr);
  EXPECT_EQ(router->NextCheapestLive("ALPHA", {}), "east");
  EXPECT_EQ(router->NextCheapestLive("ALPHA", {"east"}), "west");
  EXPECT_EQ(router->NextCheapestLive("BETA", {}), "west");
  EXPECT_EQ(router->NextCheapestLive("BETA", {"east", "west"}), "");

  const auto r = client->Query(
      kJoinSql, {Value(int64_t{1}), Value(int64_t{200}), Value(int64_t{1}),
                 Value(int64_t{200})});
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_GT(router->routed_calls(0), 0);  // east bought ALPHA
  EXPECT_GT(router->routed_calls(1), 0);  // west bought BETA
  EXPECT_EQ(router->failovers(), 0);      // nothing failed
}

TEST_F(FederationTest, ConnectorAndMeterAreEndpointZeroAndLive) {
  // A federated client's connector() and meter() are endpoint 0's, the
  // ones its queries really buy through: a drop-every-call injector
  // attached through connector() makes every access routed to endpoint 0
  // retry there and fail over.
  workload::RealDataOptions options;
  options.scale = 0.02;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/4,
                                               /*query_seed=*/1);
  std::vector<workload::FederatedEndpointSpec> specs(2);
  specs[0].id = "east";
  specs[1].id = "west";
  auto federation = workload::MakeFederatedMarket(*bundle, specs, 42);
  obs::Observability obs;
  PayLessConfig config = workload::PayLessFullConfig();
  config.observability = &obs;
  auto client = workload::NewFederatedPayLessClient(*bundle, federation.get(),
                                                    std::move(config));
  EXPECT_EQ(&client->meter(), &client->router()->connector(0)->meter());

  market::FaultProfile drop_all;
  drop_all.transient_rate = 1.0;
  market::FaultInjector injector(drop_all);
  client->connector()->SetFaultInjector(&injector);
  for (const workload::QueryInstance& query : bundle->queries) {
    const auto r = client->QueryWithReport(query.sql, query.params);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_TRUE(r->error.ok()) << r->error.message();
  }
  client->connector()->SetFaultInjector(nullptr);
  EXPECT_GT(client->connector()->retry_stats().attempts, 0);
  EXPECT_GT(client->router()->failovers(), 0);
  EXPECT_EQ(obs.ledger.total_transactions(),
            client->router()->TotalMeteredTransactions());
}

TEST_F(FederationTest, PlacementEvictsCheapestRebuyDensityFirst) {
  // Learn the two tables' footprints with an unbounded client first.
  int64_t alpha_bytes = 0, beta_bytes = 0;
  {
    auto probe = NewClient();
    ASSERT_TRUE(probe
                    ->Query(kJoinSql, {Value(int64_t{1}), Value(kKeys),
                                       Value(int64_t{1}), Value(kKeys)})
                    .ok());
    for (const auto& t : probe->store().SnapshotStats()) {
      if (t.table == "Alpha") alpha_bytes = t.approx_bytes;
      if (t.table == "Beta") beta_bytes = t.approx_bytes;
    }
    ASSERT_GT(alpha_bytes, 0);
    ASSERT_GT(beta_bytes, 0);
  }

  // Budget fits one table but not both. Alpha re-buys at half price on
  // east, so it is the lower re-buy-density slab and must go first.
  PayLessConfig config;
  config.placement_capacity_bytes = std::max(alpha_bytes, beta_bytes) +
                                    std::min(alpha_bytes, beta_bytes) / 2;
  auto client = NewClient(config);
  ASSERT_TRUE(client
                  ->Query(kJoinSql, {Value(int64_t{1}), Value(kKeys),
                                     Value(int64_t{1}), Value(kKeys)})
                  .ok());
  // The query's own placement pass already evicted.
  auto* placement = client->placement();
  ASSERT_NE(placement, nullptr);
  EXPECT_EQ(placement->evicted_tables(), 1);

  // The dropped table's cell survives but holds nothing reusable.
  for (const auto& t : client->store().SnapshotStats()) {
    if (t.table == "Alpha") {
      EXPECT_EQ(t.pooled_rows, 0u);
      EXPECT_EQ(t.views, 0u);
    }
    if (t.table == "Beta") {
      EXPECT_GT(t.pooled_rows, 0u);
    }
  }
  const auto decision = placement->LastDecision();
  for (const auto& t : decision) {
    if (t.table == "Alpha") {
      EXPECT_FALSE(t.retained);
    }
    if (t.table == "Beta") {
      EXPECT_TRUE(t.retained);
    }
  }
}

TEST_F(FederationTest, PlacementDecisionSurvivesRestartBillingCorrect) {
  char tmpl[] = "/tmp/payless_fed_place_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  PayLessConfig config;
  config.durability.dir = dir;
  config.placement_capacity_bytes = 1;  // evict every market slab
  {
    auto client = NewClient(config);
    ASSERT_TRUE(client
                    ->Query(kJoinSql, {Value(int64_t{1}), Value(kKeys),
                                       Value(int64_t{1}), Value(kKeys)})
                    .ok());
    EXPECT_EQ(client->placement()->evicted_tables(), 2);
    for (const auto& t : client->store().SnapshotStats()) {
      EXPECT_EQ(t.pooled_rows, 0u) << t.table;
    }
  }

  // The restart recovers the POST-eviction store: nothing to reuse, so a
  // re-read re-buys (no phantom free rows), and billing starts from zero
  // on this client's meters.
  auto restarted = NewClient(config);
  for (const auto& t : restarted->store().SnapshotStats()) {
    EXPECT_EQ(t.pooled_rows, 0u) << t.table;
  }
  const auto r = restarted->QueryWithReport(
      kJoinSql, {Value(int64_t{1}), Value(int64_t{500}), Value(int64_t{1}),
                 Value(int64_t{500})});
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_TRUE(r->error.ok()) << r->error.message();
  EXPECT_GT(r->transactions_spent, 0);
  EXPECT_EQ(restarted->router()->TotalMeteredTransactions(),
            r->transactions_spent);

  // The re-read's own placement pass evicted what it bought, so reading
  // again buys again, and the endpoint meters hold exactly both bills.
  const auto again = restarted->QueryWithReport(
      kJoinSql, {Value(int64_t{1}), Value(int64_t{500}), Value(int64_t{1}),
                 Value(int64_t{500})});
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->error.ok()) << again->error.message();
  EXPECT_GT(again->transactions_spent, 0);
  EXPECT_EQ(restarted->router()->TotalMeteredTransactions(),
            r->transactions_spent + again->transactions_spent);
  std::remove((dir + "/harvest.wal").c_str());
  std::remove((dir + "/store.snap").c_str());
  ::rmdir(dir.c_str());
}

/// Minimal loopback GET (the server closes after each reply).
std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(FederationTest, MarketsRouteServesFederationStateOverHttp) {
  obs::Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  config.placement_capacity_bytes = 1 << 30;  // observe-and-report mode
  auto client = NewClient(config);
  ASSERT_TRUE(client
                  ->Query(kJoinSql, {Value(int64_t{1}), Value(int64_t{300}),
                                     Value(int64_t{1}), Value(int64_t{300})})
                  .ok());

  obs::HttpExpositionServer server(&obs.metrics, &obs.ledger);
  client->RegisterIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string reply = HttpGet(server.port(), "/markets");
  ASSERT_FALSE(reply.empty());
  EXPECT_NE(reply.find("200"), std::string::npos);
  EXPECT_NE(reply.find("\"federated\":true"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"east\""), std::string::npos);
  EXPECT_NE(reply.find("\"west\""), std::string::npos);
  EXPECT_NE(reply.find("\"failovers\""), std::string::npos);
  EXPECT_NE(reply.find("\"placement\""), std::string::npos);
  server.Stop();
}

TEST(FederatedBundleTest, WorkloadHelperBuildsARunnableFederation) {
  workload::RealDataOptions options;
  auto bundle = workload::MakeRealBundle(options, /*per_template=*/1,
                                         /*query_seed=*/7);
  std::vector<workload::FederatedEndpointSpec> specs(2);
  specs[0].id = "east";
  specs[1].id = "west";
  auto federation = workload::MakeFederatedMarket(*bundle, specs, 42);
  EXPECT_EQ(federation->num_endpoints(), 2u);

  obs::Observability obs;
  PayLessConfig config = workload::PayLessFullConfig();
  config.observability = &obs;
  auto client =
      workload::NewFederatedPayLessClient(*bundle, federation.get(), config);
  for (const auto& q : bundle->queries) {
    const auto r = client->QueryWithReport(q.sql, q.params);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_TRUE(r->error.ok()) << r->error.message();
  }
  EXPECT_TRUE(obs.savings.Reconciles());
  EXPECT_EQ(obs.savings.total_actual(), obs.ledger.total_transactions());
  EXPECT_EQ(obs.ledger.total_transactions(),
            client->router()->TotalMeteredTransactions());
}

/// One pass of the real workload through a fresh federated client. Checks
/// that every query succeeds, the savings ledger reconciles and the cost
/// ledger equals the endpoint meters; collects the delivered call regions.
struct FederatedRun {
  double money = 0.0;
  int64_t rows = 0;
  int64_t routing_savings = 0;
  int64_t failovers = 0;
  std::vector<std::string> delivered_calls;  // sorted
};

void RunFederated(const workload::Bundle& bundle, FederatedMarket* market,
                  const market::RetryPolicy& retry, FederatedRun* out) {
  obs::Observability obs;
  PayLessConfig config = workload::PayLessFullConfig();
  config.observability = &obs;
  config.retry = retry;
  auto client =
      workload::NewFederatedPayLessClient(bundle, market, std::move(config));
  client->router()->AddListener(
      [out](const market::RestCall& call, const market::CallResult&) {
        out->delivered_calls.push_back(call.ToString());
      });
  for (const workload::QueryInstance& query : bundle.queries) {
    const auto r = client->QueryWithReport(query.sql, query.params);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ASSERT_TRUE(r->error.ok()) << r->error.message();
    out->rows += static_cast<int64_t>(r->result.num_rows());
  }
  EXPECT_TRUE(obs.savings.Reconciles());
  EXPECT_EQ(obs.ledger.total_transactions(),
            client->router()->TotalMeteredTransactions());
  out->money = obs.ledger.total_price();
  out->routing_savings =
      obs.savings.total_by_cause(obs::SavingsCause::kFederationRouting);
  out->failovers = client->router()->failovers();
  std::sort(out->delivered_calls.begin(), out->delivered_calls.end());
}

TEST(FederatedBundleTest, RealWorkloadFederationBeatsEverySingleMarket) {
  // Five-tuple pages, so the workload's scans span several pages and the
  // double-page discounts show in transactions as well as money.
  workload::RealDataOptions options;
  options.scale = 0.04;
  options.seed = 42;
  options.tuples_per_transaction = 5;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/8,
                                               /*query_seed=*/1);
  std::vector<workload::FederatedEndpointSpec> specs(2);
  for (size_t e = 0; e < specs.size(); ++e) {
    specs[e].id = "m" + std::to_string(e);
    specs[e].discount_scale = 0.5;
  }
  auto federation = workload::MakeFederatedMarket(*bundle, specs, 42);
  FederatedRun federated;
  RunFederated(*bundle, federation.get(), market::RetryPolicy{}, &federated);
  EXPECT_GT(federated.routing_savings, 0);

  // Each endpoint alone, with its menu and the same rows: the federation
  // must beat every one of them on money with the same answers, and a
  // single market leaves no routing to attribute savings to.
  for (size_t e = 0; e < federation->num_endpoints(); ++e) {
    const EndpointConfig& menu = federation->endpoint(e)->config();
    SCOPED_TRACE(menu.id);
    FederatedMarket single(bundle->market.get(), /*base_seed=*/42);
    ASSERT_TRUE(single.AddEndpoint(menu).ok());
    FederatedRun alone;
    RunFederated(*bundle, &single, market::RetryPolicy{}, &alone);
    EXPECT_LT(federated.money, alone.money);
    EXPECT_EQ(alone.rows, federated.rows);
    EXPECT_EQ(alone.routing_savings, 0);
  }

  // 20% transient faults on both endpoints, each on its own seeded stream.
  // A short retry budget makes calls fail over to the other endpoint; the
  // breaker threshold sits above the run's failure count so the wall-clock
  // cooldown never changes a buy-site choice.
  for (auto& spec : specs) {
    spec.inject_faults = true;
    spec.fault_profile.transient_rate = 0.2;
  }
  auto faulty_federation = workload::MakeFederatedMarket(*bundle, specs, 42);
  market::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_micros = 20;
  retry.max_backoff_micros = 200;
  retry.breaker_failure_threshold = 1'000'000;
  FederatedRun faulty;
  RunFederated(*bundle, faulty_federation.get(), retry, &faulty);
  EXPECT_GT(faulty.failovers, 0);
  EXPECT_EQ(faulty.rows, federated.rows);
  // Failover re-buys only undelivered calls: no region arrives twice, and
  // the run delivers exactly the fault-free run's regions.
  EXPECT_EQ(std::adjacent_find(faulty.delivered_calls.begin(),
                               faulty.delivered_calls.end()),
            faulty.delivered_calls.end());
  EXPECT_EQ(faulty.delivered_calls, federated.delivered_calls);
}

/// A one-byte store budget on the real workload (scale 0.04, four instances
/// per template, one market): every query's placement pass evicts every
/// market slab, so each re-run meets a store that lost what its cached plan
/// was made against.
class PlacementBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::RealDataOptions options;
    options.scale = 0.04;
    options.seed = 42;
    bundle_ = workload::MakeRealBundle(options, /*per_template=*/4,
                                       /*query_seed=*/1)
                  .release();
    storage::Database db;
    for (const auto& [name, rows] : bundle_->local_tables) {
      ASSERT_TRUE(db.CreateTable(*bundle_->catalog.FindTable(name)).ok());
      ASSERT_TRUE(db.InsertRows(name, rows).ok());
    }
    expected_ = new std::vector<storage::Table>();
    for (const workload::QueryInstance& query : bundle_->queries) {
      Result<storage::Table> want = exec::ReferenceEvaluate(
          bundle_->catalog, *bundle_->market, db, query.sql, query.params);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      expected_->push_back(std::move(*want));
    }
  }

  static void TearDownTestSuite() {
    delete expected_;
    expected_ = nullptr;
    delete bundle_;
    bundle_ = nullptr;
  }

  static std::unique_ptr<PayLess> NewBudgetClient() {
    PayLessConfig config = workload::PayLessFullConfig();
    config.placement_capacity_bytes = 1;
    return workload::NewPayLessClient(*bundle_, std::move(config));
  }

  /// Runs query `i` and compares its rows with the oracle's.
  static void ExpectOracleRows(PayLess* client, size_t i) {
    const workload::QueryInstance& query = bundle_->queries[i];
    Result<storage::Table> got = client->Query(query.sql, query.params);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n  " << query.sql;
    EXPECT_TRUE(exec::SameResult(*got, (*expected_)[i]))
        << "query " << i << ": " << got->num_rows() << " rows, oracle "
        << (*expected_)[i].num_rows() << "\n  " << query.sql;
  }

  static void ExpectNoPooledRows(const PayLess& client) {
    for (const auto& t : client.store().SnapshotStats()) {
      EXPECT_EQ(t.pooled_rows, 0u) << t.table;
    }
  }

  static workload::Bundle* bundle_;
  static std::vector<storage::Table>* expected_;
};

workload::Bundle* PlacementBudgetTest::bundle_ = nullptr;
std::vector<storage::Table>* PlacementBudgetTest::expected_ = nullptr;

TEST_F(PlacementBudgetTest, BudgetBoundClientMatchesTheOracle) {
  auto client = NewBudgetClient();
  auto unbounded =
      workload::NewPayLessClient(*bundle_, workload::PayLessFullConfig());
  for (size_t i = 0; i < bundle_->queries.size(); ++i) {
    for (int run = 0; run < 2; ++run) {
      ExpectOracleRows(client.get(), i);
      ExpectNoPooledRows(*client);
      ExpectOracleRows(unbounded.get(), i);
    }
  }
  EXPECT_GT(client->placement()->evicted_tables(), 0);
  // The budget costs money: the unbounded twin answers each second run
  // from what the first one bought, the budget-bound client buys it again.
  const int64_t billed = client->meter().total_transactions();
  EXPECT_GT(billed, unbounded->meter().total_transactions());
  EXPECT_EQ(client->observability()->ledger.total_transactions(), billed);
}

TEST_F(PlacementBudgetTest, FourThreadsMatchTheOracle) {
  // Passes run between other threads' queries: each must wait out every
  // query between its plan-cache probe and the end of its execution.
  constexpr size_t kThreads = 4;
  auto client = NewBudgetClient();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&client, t] {
      for (size_t i = t; i < bundle_->queries.size(); i += kThreads) {
        for (int run = 0; run < 2; ++run) ExpectOracleRows(client.get(), i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ExpectNoPooledRows(*client);
}

}  // namespace
}  // namespace payless::federation
