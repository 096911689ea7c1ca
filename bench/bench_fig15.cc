// Figure 15: effectiveness of the bounding-box pruning rules of
// Algorithm 1. Average number of bounding boxes surviving generation per
// query instance, with the two pruning rules on ("PayLess") vs off ("No
// Pruning"), as q varies. Expected shape: pruning cuts roughly an order of
// magnitude.
#include <cstdio>

#include "bench/driver.h"

namespace payless::bench {
namespace {

double AvgBoundingBoxes(const workload::Bundle& bundle, bool pruning) {
  exec::PayLessConfig config = workload::PayLessFullConfig();
  config.optimizer.remainder.prune_minimal = pruning;
  config.optimizer.remainder.prune_price = pruning;
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
    total += static_cast<double>(report->counters.kept_bboxes);
  }
  return total / static_cast<double>(bundle.queries.size());
}

void RunPoint(const workload::Bundle& bundle, int64_t q) {
  const double pruned = AvgBoundingBoxes(bundle, /*pruning=*/true);
  const double unpruned = AvgBoundingBoxes(bundle, /*pruning=*/false);
  std::printf("q=%lld  PayLess=%.1f  NoPruning=%.1f\n",
              static_cast<long long>(q), pruned, unpruned);
}

int Main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::printf("=== Figure 15a: real data ===\n");
  for (const int64_t q : {100, 200, 300}) {
    workload::RealDataOptions options;
    options.scale = 0.05;
    auto bundle = workload::MakeRealBundle(options, static_cast<size_t>(q),
                                           /*query_seed=*/80 + q);
    RunPoint(*bundle, q);
  }

  std::printf("=== Figure 15b: TPC-H ===\n");
  for (const int64_t q : {5, 10, 20}) {
    workload::TpchOptions options;
    options.scale_factor = 0.002;
    auto bundle = workload::MakeTpchBundle(options, static_cast<size_t>(q),
                                           /*query_seed=*/90 + q);
    RunPoint(*bundle, q);
  }

  std::printf("=== Figure 15c: TPC-H skew ===\n");
  for (const int64_t q : {5, 10, 20}) {
    workload::TpchOptions options;
    options.scale_factor = 0.002;
    options.zipf = 1.0;
    auto bundle = workload::MakeTpchBundle(options, static_cast<size_t>(q),
                                           /*query_seed=*/95 + q);
    RunPoint(*bundle, q);
  }
  return 0;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
