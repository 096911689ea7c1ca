// Figure 14: effectiveness of the search-space reduction techniques.
// Average number of candidate (sub)plans evaluated per query instance, for
// (i) PayLess (SQR + Theorems 1-3), (ii) Disable SQR (theorems only), and
// (iii) Disable All (bushy exhaustive enumeration, no SQR), as q varies.
// Expected shape: Disable All is orders of magnitude above the others, and
// PayLess dips below Disable SQR because rewriting turns relations into
// zero-price ones, triggering Theorem 2 more often as q grows.
#include <cstdio>

#include "bench/driver.h"

namespace payless::bench {
namespace {

double AvgEvaluatedPlans(const workload::Bundle& bundle,
                         exec::PayLessConfig config) {
  // Every query is optimized: a plan-cache hit would report the counters
  // of the optimization that built the template, against an earlier store.
  config.enable_plan_cache = false;
  auto client = workload::NewPayLessClient(bundle, config);
  double total = 0.0;
  for (const workload::QueryInstance& query : bundle.queries) {
    auto report = client->QueryWithReport(query.sql, query.params);
    if (!report.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   report.status().ToString().c_str());
      std::abort();
    }
    total += static_cast<double>(report->counters.evaluated_plans);
  }
  return total / static_cast<double>(bundle.queries.size());
}

exec::PayLessConfig DisableAllConfig() {
  exec::PayLessConfig config = workload::PayLessNoSqrConfig();
  config.optimizer.use_search_reduction = false;
  return config;
}

void RunPoint(const workload::Bundle& bundle, int64_t q) {
  const double payless =
      AvgEvaluatedPlans(bundle, workload::PayLessFullConfig());
  const double no_sqr =
      AvgEvaluatedPlans(bundle, workload::PayLessNoSqrConfig());
  const double disable_all = AvgEvaluatedPlans(bundle, DisableAllConfig());
  std::printf("q=%lld  PayLess=%.1f  DisableSQR=%.1f  DisableAll=%.1f\n",
              static_cast<long long>(q), payless, no_sqr, disable_all);
}

int Main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::printf("=== Figure 14a: real data ===\n");
  for (const int64_t q : {100, 200, 300}) {
    workload::RealDataOptions options;
    options.scale = 0.05;
    auto bundle = workload::MakeRealBundle(options, static_cast<size_t>(q),
                                           /*query_seed=*/50 + q);
    RunPoint(*bundle, q);
  }

  std::printf("=== Figure 14b: TPC-H ===\n");
  for (const int64_t q : {5, 10, 20}) {
    workload::TpchOptions options;
    options.scale_factor = 0.002;
    auto bundle = workload::MakeTpchBundle(options, static_cast<size_t>(q),
                                           /*query_seed=*/60 + q);
    RunPoint(*bundle, q);
  }

  std::printf("=== Figure 14c: TPC-H skew ===\n");
  for (const int64_t q : {5, 10, 20}) {
    workload::TpchOptions options;
    options.scale_factor = 0.002;
    options.zipf = 1.0;
    auto bundle = workload::MakeTpchBundle(options, static_cast<size_t>(q),
                                           /*query_seed=*/70 + q);
    RunPoint(*bundle, q);
  }
  return 0;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
