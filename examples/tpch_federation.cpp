// Federated TPC-H: the paper's synthetic workload (§5). Nation and Region
// live in the buyer's local DBMS; the six fact/dimension tables are sold in
// the market. The example runs one instance of every TPC-H-style template
// through PayLess, prints how each plan mixes local tables, cached data,
// range calls and bind joins, and compares the total bill against
// Download All and the call-minimizing optimizer of [27].
#include <cstdio>

#include "workload/bundle.h"

using namespace payless;  // NOLINT: example brevity

int main() {
  workload::TpchOptions options;
  options.scale_factor = 0.002;
  options.zipf = 0.0;
  auto bundle =
      workload::MakeTpchBundle(options, /*per_template=*/1, /*query_seed=*/4);

  auto payless =
      workload::NewPayLessClient(*bundle, workload::PayLessFullConfig());
  auto min_calls =
      workload::NewPayLessClient(*bundle, workload::MinimizingCallsConfig());
  auto download_all = workload::NewDownloadAllClient(*bundle);

  std::printf("%-4s %7s %8s %7s  %s\n", "tmpl", "rows", "txn", "calls",
              "plan");
  for (const auto& query : bundle->queries) {
    Result<exec::QueryReport> report =
        payless->QueryWithReport(query.sql, query.params);
    if (!report.ok()) {
      std::printf("PayLess failed: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::string sketch;
    for (const auto& access : report->plan.accesses) {
      if (!sketch.empty()) sketch += " -> ";
      sketch += core::AccessKindName(access.kind);
    }
    std::printf("T%-3zu %7zu %8lld %7lld  %s\n", query.template_id + 1,
                report->result.num_rows(),
                static_cast<long long>(report->transactions_spent),
                static_cast<long long>(report->exec.calls), sketch.c_str());

    const Result<storage::Table> by_calls =
        min_calls->Query(query.sql, query.params);
    if (!by_calls.ok()) {
      std::printf("Minimizing Calls failed: %s\n",
                  by_calls.status().ToString().c_str());
      return 1;
    }
    const Result<storage::Table> by_download =
        download_all->Query(query.sql, query.params);
    if (!by_download.ok()) {
      std::printf("Download All failed: %s\n",
                  by_download.status().ToString().c_str());
      return 1;
    }
  }

  std::printf("\nTotals over %zu queries:\n", bundle->queries.size());
  std::printf("  PayLess          : %6lld transactions\n",
              static_cast<long long>(payless->meter().total_transactions()));
  std::printf("  Minimizing Calls : %6lld transactions\n",
              static_cast<long long>(min_calls->meter().total_transactions()));
  std::printf("  Download All     : %6lld transactions\n",
              static_cast<long long>(
                  download_all->meter().total_transactions()));
  return 0;
}
