// The accounting pin: who was billed what, query by query, under faults.
// One PayLessFullConfig client (one call in flight at a time) buys through
// a seeded FaultInjector that drops and loses responses; every number the
// client reports about money is written as text, one line per query, batch
// and ledger, and tests/golden/accounting.txt is the committed text.
// accounting_pin_test recomputes it and accounting_pin regenerates it.
//
// The sequence, over the real workload at scale 0.02 (200 instances per
// template, query seed 1):
//   - four QueryBatch windows of four instances of one template each, on
//     the cold client, so batch prefetch merges footprints;
//   - the bundle's instances in order, with a storm (most attempts dropped)
//     over a stretch of them, so some queries exhaust their retries;
//   - the first 400 draws of the bill digest's repeat mix, so the plan
//     cache serves repeats;
//   - every 25th query of the last two parts is sent as EXPLAIN ANALYZE.
//
// A query line holds its spend, its spend by dataset, the counterfactual
// and the savings, and its error code; an EXPLAIN ANALYZE line is followed
// by the plan text without its latency line. A batch line holds the batch's
// prefetch spend, merged groups and total spend, and is followed by its
// queries' lines. The last two lines are the cost ledger's and the savings
// ledger's JSON documents.
#ifndef PAYLESS_TESTS_ACCOUNTING_PIN_H_
#define PAYLESS_TESTS_ACCOUNTING_PIN_H_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bill_digest.h"
#include "market/fault_injector.h"

namespace payless::digest {

/// The line of one query's report (and, for EXPLAIN ANALYZE, its plan).
inline void AppendReportLines(const std::string& label,
                              const Result<exec::QueryReport>& report,
                              std::vector<std::string>* lines) {
  std::ostringstream os;
  os << label;
  if (!report.ok()) {
    os << " status " << Status::CodeName(report.status().code());
    lines->push_back(os.str());
    return;
  }
  os << " " << Status::CodeName(report->error.code()) << " spent "
     << report->transactions_spent << " [";
  bool first = true;
  for (const auto& [dataset, tx] : report->transactions_by_dataset) {
    os << (first ? "" : " ") << dataset << "=" << tx;
    first = false;
  }
  os << "] cf " << report->counterfactual_transactions << " saved "
     << report->savings_transactions;
  lines->push_back(os.str());
  std::istringstream plan(report->plan_text);
  std::string line;
  while (std::getline(plan, line)) {
    if (line.rfind("latency:", 0) != 0) lines->push_back("  | " + line);
  }
}

inline std::unique_ptr<workload::Bundle> AccountingBundle() {
  workload::RealDataOptions options;
  options.scale = 0.02;
  return workload::MakeRealBundle(options, 200, /*query_seed=*/1);
}

/// Every line of the accounting pin, in file order.
inline std::vector<std::string> ComputeAccountingPin() {
  const std::unique_ptr<workload::Bundle> bundle = AccountingBundle();
  exec::PayLessConfig config = workload::PayLessFullConfig();
  config.max_parallel_calls = 1;
  const std::unique_ptr<exec::PayLess> client =
      workload::NewPayLessClient(*bundle, config);

  market::FaultProfile flaky;
  flaky.transient_rate = 0.1;
  flaky.lost_response_rate = 0.1;
  flaky.seed = 11;
  market::FaultInjector flaky_market(flaky);
  market::FaultProfile storm;
  storm.transient_rate = 0.6;
  storm.lost_response_rate = 0.1;
  storm.seed = 13;
  market::FaultInjector storm_market(storm);
  client->connector()->SetFaultInjector(&flaky_market);

  std::vector<std::string> lines;
  const std::vector<workload::QueryInstance>& pool = bundle->queries;

  // Four windows of four same-template instances, on the cold client.
  for (size_t t = 0; t < 4; ++t) {
    std::vector<exec::BatchQuery> batch;
    for (const workload::QueryInstance& q : pool) {
      if (q.template_id == t && batch.size() < 4) {
        batch.push_back({q.sql, q.params});
      }
    }
    const Result<exec::BatchReport> report = client->QueryBatch(batch);
    std::ostringstream os;
    os << "batch " << t;
    if (!report.ok()) {
      os << " status " << Status::CodeName(report.status().code());
      lines.push_back(os.str());
      continue;
    }
    os << " prefetch " << report->prefetch_transactions << " groups "
       << report->merged_groups << " spent " << report->transactions_spent;
    lines.push_back(os.str());
    for (size_t i = 0; i < report->reports.size(); ++i) {
      AppendReportLines("  batch " + std::to_string(t) + "." +
                            std::to_string(i),
                        report->reports[i], &lines);
    }
  }

  std::vector<size_t> sequence = InOrder(*bundle);
  const std::vector<size_t> mix = RepeatMixDraws(*bundle, 400);
  const size_t cold = sequence.size();
  sequence.insert(sequence.end(), mix.begin(), mix.end());
  constexpr size_t kStormBegin = 100;
  constexpr size_t kStormEnd = 130;
  for (size_t i = 0; i < sequence.size(); ++i) {
    if (i == kStormBegin) client->connector()->SetFaultInjector(&storm_market);
    if (i == kStormEnd) client->connector()->SetFaultInjector(&flaky_market);
    const workload::QueryInstance& q = pool[sequence[i]];
    const bool analyze = i % 25 == 0;
    const Result<exec::QueryReport> report = client->QueryWithReport(
        analyze ? "EXPLAIN ANALYZE " + q.sql : q.sql, q.params);
    std::ostringstream label;
    label << (i < cold ? "order " : "mix ") << (i < cold ? i : i - cold)
          << " t" << q.template_id << (analyze ? " analyze" : "");
    AppendReportLines(label.str(), report, &lines);
  }
  client->connector()->SetFaultInjector(nullptr);

  const obs::Observability& obs = *client->observability();
  lines.push_back("ledger " + obs.ledger.ToJson());
  lines.push_back("savings " + obs.savings.ToJson());
  return lines;
}

/// The committed file's header; every header line starts with '#'.
inline const char* AccountingPinHeader() {
  return "# Accounting pin: every query's spend, spend by dataset,\n"
         "# counterfactual, savings and error code, EXPLAIN ANALYZE plans\n"
         "# without latency, batch spend, and the cost and savings ledgers,\n"
         "# for one PayLessFullConfig client under seeded faults\n"
         "# (tests/accounting_pin.h). Regenerate with\n"
         "# build/tests/accounting_pin > tests/golden/accounting.txt;\n"
         "# a change that moves a line changes what a query reports.\n";
}

}  // namespace payless::digest

#endif  // PAYLESS_TESTS_ACCOUNTING_PIN_H_
