// Ablation benches for the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//   (a) statistics backend — multidimensional feedback histogram (ISOMER
//       role) vs frozen uniform, the §4.3 cold start that never learns,
//   (b) batched multi-query optimization vs sequential execution (§7).
#include <cstdio>

#include "bench/driver.h"

namespace payless::bench {
namespace {

void StatsAblation(int64_t real_q) {
  std::printf("=== Ablation A: statistics backend (real data, q=%lld) ===\n",
              static_cast<long long>(real_q));
  workload::RealDataOptions options;
  options.scale = 0.05;
  auto bundle = workload::MakeRealBundle(options,
                                         static_cast<size_t>(real_q), 7);
  const struct {
    const char* name;
    stats::StatsKind kind;
  } variants[] = {
      {"feedback-histogram (ISOMER role)",
       stats::StatsKind::kFeedbackHistogram},
      {"frozen uniform", stats::StatsKind::kUniform},
  };
  for (const auto& variant : variants) {
    exec::PayLessConfig config = workload::PayLessFullConfig();
    config.stats_kind = variant.kind;
    auto client = workload::NewPayLessClient(*bundle, config);
    const std::vector<int64_t> run =
        RunCumulative(client.get(), bundle->queries);
    std::printf("%-36s total=%lld transactions\n", variant.name,
                static_cast<long long>(run.back()));
  }
  std::printf("\n");
}

void BatchAblation(int64_t real_q) {
  std::printf("=== Ablation B: batched MQO vs sequential (real data, "
              "q=%lld) ===\n",
              static_cast<long long>(real_q));
  workload::RealDataOptions options;
  options.scale = 0.05;
  auto bundle = workload::MakeRealBundle(options,
                                         static_cast<size_t>(real_q), 8);
  // Sequential.
  {
    auto client =
        workload::NewPayLessClient(*bundle, workload::PayLessFullConfig());
    const std::vector<int64_t> run =
        RunCumulative(client.get(), bundle->queries);
    std::printf("%-36s total=%lld transactions\n", "sequential",
                static_cast<long long>(run.back()));
  }
  // Batched in groups of 25 (users defer their queries, §7).
  {
    auto client =
        workload::NewPayLessClient(*bundle, workload::PayLessFullConfig());
    size_t merged = 0;
    for (size_t start = 0; start < bundle->queries.size(); start += 25) {
      std::vector<exec::BatchQuery> batch;
      for (size_t i = start;
           i < std::min(start + 25, bundle->queries.size()); ++i) {
        batch.push_back(exec::BatchQuery{bundle->queries[i].sql,
                                         bundle->queries[i].params});
      }
      auto report = client->QueryBatch(batch);
      if (!report.ok()) {
        std::fprintf(stderr, "batch failed: %s\n",
                     report.status().ToString().c_str());
        std::abort();
      }
      merged += report->merged_groups;
    }
    std::printf("%-36s total=%lld transactions (%zu merged groups)\n",
                "batched (25-query batches)",
                static_cast<long long>(client->meter().total_transactions()),
                merged);
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  const int64_t real_q = FlagOr(argc, argv, "real_q", 40);
  StatsAblation(real_q);
  BatchAblation(real_q);
  return 0;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
