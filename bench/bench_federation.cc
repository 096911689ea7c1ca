// Federation sweep: the real workload replayed against 1/2/4-endpoint
// markets, fault-free and under injected transient faults.
//
// Endpoint menus are built by workload::MakeFederatedMarket: dataset d is
// discounted (half price, double pages) at endpoint d % N, so with N >= 2
// no single market is cheapest for every dataset and the buy-site-aware
// optimizer must split its purchases to win. For every fault-free
// N >= 2 configuration the bench ALSO replays the identical workload
// against each endpoint alone (same menu, same data) and gates on:
//
//   1. federated spend (money) strictly below the cheapest single market;
//   2. the savings ledger reconciling, with the federation's edge over the
//      cheapest-single-market counterfactual attributed to the
//      federation_routing cause (> 0 for N >= 2, == 0 for N == 1, and the
//      causes summing to the savings — Reconciles() checks the sum);
//   3. under faults: identical delivered rows, failovers actually
//      exercised, and non-wasted spend within 1% of the fault-free run
//      (failover re-buys undelivered calls at the next-cheapest live
//      endpoint, whose page size may differ slightly) — the
//      `failover_divergence_pct` field is absolutely capped in
//      scripts/check_bench_regression.py.
//
//   build/bench/bench_federation [--scale_pct=10] [--per_template=20]
//                                [--seed=42] [--query_seed=1]
//                                [--fault_pct=20]
//                                [--json=BENCH_federation.json]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "federation/market_endpoint.h"
#include "obs/observability.h"
#include "obs/savings.h"

namespace payless::bench {
namespace {

struct RunTotals {
  int64_t transactions = 0;  // billed, across every endpoint meter
  double money = 0.0;        // billed price, from the cost ledger
  int64_t rows = 0;          // delivered result rows
  int64_t wasted = 0;        // lost-response transactions (none injected)
  int64_t failovers = 0;
  int64_t counterfactual = 0;      // cheapest-single-market estimate (txn)
  int64_t federation_routing = 0;  // savings attributed to routing (txn)
  bool reconciles = false;
  bool failed = false;
};

/// Replays the bundle's workload once through a fresh client wired to
/// `federation`; `fault_rate` > 0 injects transient faults on every
/// endpoint (deterministic per-endpoint sub-seeded streams).
RunTotals RunWorkload(const workload::Bundle& bundle,
                      federation::FederatedMarket* federation,
                      double fault_rate) {
  obs::Observability obs;
  exec::PayLessConfig config = workload::PayLessFullConfig();
  config.observability = &obs;
  if (fault_rate > 0.0) {
    // A multi-endpoint client can fail over after a short retry budget; a
    // single-market client has no alternative seller and must retry its
    // way through the same fault stream.
    config.retry.max_attempts = federation->num_endpoints() > 1 ? 3 : 6;
    config.retry.initial_backoff_micros = 20;
    config.retry.max_backoff_micros = 200;
    config.retry.breaker_failure_threshold = 8;
    config.retry.breaker_cooldown_micros = 2'000;
  }
  auto client =
      workload::NewFederatedPayLessClient(bundle, federation, config);

  RunTotals totals;
  for (const workload::QueryInstance& query : bundle.queries) {
    const auto report = client->QueryWithReport(query.sql, query.params);
    if (!report.ok() || !report->error.ok()) {
      const Status& st = report.ok() ? report->error : report.status();
      std::fprintf(stderr, "query failed: %s\n  sql: %s\n",
                   st.ToString().c_str(), query.sql.c_str());
      totals.failed = true;
      return totals;
    }
    totals.rows += static_cast<int64_t>(report->result.rows().size());
  }

  auto* router = client->router();
  totals.transactions = router->TotalMeteredTransactions();
  totals.money = obs.ledger.total_price();
  totals.failovers = router->failovers();
  for (size_t i = 0; i < federation->num_endpoints(); ++i) {
    totals.wasted += router->connector(i)->retry_stats().wasted_transactions;
  }
  totals.counterfactual = obs.savings.total_counterfactual();
  totals.federation_routing =
      obs.savings.total_by_cause(obs::SavingsCause::kFederationRouting);
  totals.reconciles = obs.savings.Reconciles();
  return totals;
}

/// A federation holding ONE endpoint with `config`'s menu — the
/// single-market counterfactual world, re-hosted on the same rows.
std::unique_ptr<federation::FederatedMarket> SingleMarketOf(
    const workload::Bundle& bundle, const federation::EndpointConfig& config) {
  auto single = std::make_unique<federation::FederatedMarket>(
      &bundle.catalog, /*base_seed=*/42);
  federation::EndpointConfig clean = config;
  clean.inject_faults = false;  // the counterfactual is a healthy market
  if (!single->AddEndpoint(clean).ok()) return nullptr;
  for (const std::string& table : bundle.catalog.TableNames()) {
    const std::vector<Row>* rows = bundle.market->HostedRows(table);
    if (rows != nullptr && !single->HostTable(table, *rows).ok()) {
      return nullptr;
    }
  }
  return single;
}

int Main(int argc, char** argv) {
  const WorkloadFlags flags =
      ParseWorkloadFlags(argc, argv, /*scale_pct=*/10, /*per_template=*/20);
  const int64_t scale_pct = flags.scale_pct;
  const int64_t per_template = flags.per_template;
  const int64_t seed = flags.seed;
  const int64_t query_seed = flags.query_seed;
  const int64_t fault_pct = FlagOr(argc, argv, "fault_pct", 20);
  // A page small enough that the workload's scans span several of them;
  // with the default market page (100 tuples) every access fits one page
  // and the double-page discount endpoints can't show up in transaction
  // counts — only in money.
  const int64_t page_tuples = FlagOr(argc, argv, "page_tuples", 5);
  const std::string& json_path = flags.json_path;

  workload::RealDataOptions options;
  options.scale = static_cast<double>(scale_pct) / 100.0;
  options.seed = static_cast<uint64_t>(seed);
  options.tuples_per_transaction = page_tuples;
  auto bundle = workload::MakeRealBundle(
      options, static_cast<size_t>(per_template),
      static_cast<uint64_t>(query_seed));
  const double fault_rate = static_cast<double>(fault_pct) / 100.0;

  std::printf("# bench_federation: %zu queries, scale %.2f, fault %.2f\n",
              bundle->queries.size(), options.scale, fault_rate);
  std::printf(
      "# endpoints txn money cheapest_single_money routing_txn "
      "failovers divergence_pct\n");

  BenchJson json;
  json.Meta("bench", std::string("federation"));
  json.Meta("queries", static_cast<int64_t>(bundle->queries.size()));
  json.Meta("scale", options.scale);
  json.Meta("fault_rate", fault_rate);
  json.Meta("page_tuples", page_tuples);

  bool ok = true;
  for (const size_t num_endpoints : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<workload::FederatedEndpointSpec> specs(num_endpoints);
    for (size_t e = 0; e < num_endpoints; ++e) {
      specs[e].id = "m" + std::to_string(e);
      specs[e].discount_scale = 0.5;
    }

    // Fault-free federated run.
    auto federation = workload::MakeFederatedMarket(*bundle, specs, 42);
    const RunTotals clean = RunWorkload(*bundle, federation.get(), 0.0);
    if (clean.failed || !clean.reconciles) {
      if (!clean.reconciles) {
        std::fprintf(stderr, "%zu endpoints: savings ledger did not "
                             "reconcile\n", num_endpoints);
      }
      return 1;
    }

    // The same workload confined to each endpoint alone; the cheapest of
    // these is the single-market world federation must beat.
    double cheapest_single_money = -1.0;
    for (size_t e = 0; e < num_endpoints; ++e) {
      auto single =
          SingleMarketOf(*bundle, federation->endpoint(e)->config());
      if (single == nullptr) return 1;
      const RunTotals alone = RunWorkload(*bundle, single.get(), 0.0);
      if (alone.failed) return 1;
      if (alone.rows != clean.rows) {
        std::fprintf(stderr,
                     "%zu endpoints: single market %s delivered %lld rows, "
                     "federated %lld\n",
                     num_endpoints, single->endpoint(size_t{0})->id().c_str(),
                     static_cast<long long>(alone.rows),
                     static_cast<long long>(clean.rows));
        return 1;
      }
      if (cheapest_single_money < 0.0 || alone.money < cheapest_single_money) {
        cheapest_single_money = alone.money;
      }
    }

    // Faulty federated run on a fresh federation (clean meters, same
    // deterministic per-endpoint fault streams every invocation).
    std::vector<workload::FederatedEndpointSpec> faulty_specs = specs;
    for (auto& spec : faulty_specs) {
      spec.inject_faults = true;
      spec.fault_profile.transient_rate = fault_rate;
    }
    auto faulty_federation =
        workload::MakeFederatedMarket(*bundle, faulty_specs, 42);
    const RunTotals faulty =
        RunWorkload(*bundle, faulty_federation.get(), fault_rate);
    if (faulty.failed || !faulty.reconciles) return 1;

    const int64_t clean_net = clean.transactions - clean.wasted;
    const int64_t faulty_net = faulty.transactions - faulty.wasted;
    const double divergence_pct =
        clean_net > 0 ? 100.0 *
                            std::abs(static_cast<double>(faulty_net) -
                                     static_cast<double>(clean_net)) /
                            static_cast<double>(clean_net)
                      : 0.0;

    std::printf("%zu %lld %.1f %.1f %lld %lld %.3f\n", num_endpoints,
                static_cast<long long>(clean.transactions), clean.money,
                cheapest_single_money,
                static_cast<long long>(clean.federation_routing),
                static_cast<long long>(faulty.failovers), divergence_pct);

    json.BeginRow("configs");
    json.Field("endpoints", static_cast<int64_t>(num_endpoints));
    json.Field("transactions", clean.transactions);
    json.Field("money", clean.money);
    json.Field("cheapest_single_market_money", cheapest_single_money);
    json.Field("counterfactual_transactions", clean.counterfactual);
    json.Field("federation_routing_transactions", clean.federation_routing);
    json.Field("faulty_failovers", faulty.failovers);
    json.Field("faulty_transactions", faulty.transactions);
    json.Field("failover_divergence_pct", divergence_pct);

    // Gates.
    if (num_endpoints >= 2) {
      if (clean.money >= cheapest_single_money) {
        std::fprintf(stderr,
                     "%zu endpoints: federated spend %.1f not strictly below "
                     "cheapest single market %.1f\n",
                     num_endpoints, clean.money, cheapest_single_money);
        ok = false;
      }
      if (clean.federation_routing <= 0) {
        std::fprintf(stderr,
                     "%zu endpoints: federation_routing cause is %lld, "
                     "expected > 0\n",
                     num_endpoints,
                     static_cast<long long>(clean.federation_routing));
        ok = false;
      }
      if (faulty.failovers <= 0) {
        std::fprintf(stderr,
                     "%zu endpoints: fault run never failed over\n",
                     num_endpoints);
        ok = false;
      }
    } else if (clean.federation_routing != 0) {
      std::fprintf(stderr,
                   "1 endpoint: federation_routing cause is %lld, expected "
                   "0 (there is no alternative market)\n",
                   static_cast<long long>(clean.federation_routing));
      ok = false;
    }
    if (faulty.rows != clean.rows) {
      std::fprintf(stderr,
                   "%zu endpoints: fault run delivered %lld rows, clean run "
                   "%lld\n",
                   num_endpoints, static_cast<long long>(faulty.rows),
                   static_cast<long long>(clean.rows));
      ok = false;
    }
    if (divergence_pct > 1.0) {
      std::fprintf(stderr,
                   "%zu endpoints: failover divergence %.3f%% exceeds 1%%\n",
                   num_endpoints, divergence_pct);
      ok = false;
    }
  }

  if (!json.WriteTo(json_path)) return 1;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
