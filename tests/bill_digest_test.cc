// Bills and rows pinned: every query of the digest's three sequences must
// bill the committed transactions and return the committed rows in the
// committed order (tests/golden/bills.txt). And observability is read-only:
// switching off an observability feature moves no bill, plan or row.
#include "bill_digest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace payless::digest {
namespace {

std::vector<std::string> ReadCommittedDigest() {
  std::ifstream in(BILLS_GOLDEN);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(BillDigestTest, EveryQueryBillsAndAnswersAsCommitted) {
  const std::vector<std::string> want = ReadCommittedDigest();
  ASSERT_FALSE(want.empty()) << "cannot read " << BILLS_GOLDEN;
  const std::vector<std::string> got = ComputeBillDigest();
  constexpr size_t kShown = 10;
  size_t differing = 0;
  std::ostringstream diff;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string committed = i < want.size() ? want[i] : "(none)";
    const std::string now = i < got.size() ? got[i] : "(none)";
    if (committed == now) continue;
    if (++differing <= kShown) {
      diff << "\n  committed: " << committed << "\n  now:       " << now;
    }
  }
  EXPECT_EQ(differing, 0u)
      << "lines that differ (first " << kShown << "):" << diff.str()
      << "\nA declared money or row-order change regenerates the file: "
         "build/tests/bill_digest > tests/golden/bills.txt";
}

/// What one query of the mix bought and answered.
struct Outcome {
  int64_t transactions = 0;
  std::string plan;
  uint64_t result_hash = 0;

  bool operator==(const Outcome&) const = default;
};

std::string PlanSignature(const core::Plan& plan) {
  std::ostringstream os;
  for (const core::AccessSpec& access : plan.accesses) {
    os << access.rel << ':' << core::AccessKindName(access.kind)
       << (access.used_sqr ? ":sqr" : "") << ":b" << access.bind_edges.size()
       << ':' << access.est_transactions << ';';
  }
  return os.str();
}

struct MixRun {
  std::vector<Outcome> outcomes;
  uint64_t plan_cache_hits = 0;
  uint64_t drift_ticks = 0;
};

MixRun RunMix(const workload::Bundle& bundle, const std::vector<size_t>& draws,
              const exec::PayLessConfig& config) {
  const std::unique_ptr<exec::PayLess> client =
      workload::NewPayLessClient(bundle, config);
  MixRun run;
  for (const size_t id : draws) {
    const workload::QueryInstance& query = bundle.queries[id];
    Result<exec::QueryReport> report =
        client->QueryWithReport(query.sql, query.params);
    EXPECT_TRUE(report.ok() && report->error.ok());
    if (!report.ok()) continue;
    run.outcomes.push_back({report->transactions_spent,
                            PlanSignature(report->plan),
                            ResultHash(report->result)});
  }
  run.plan_cache_hits = client->plan_cache().Stats().hits;
  run.drift_ticks = client->accuracy().drift_epoch();
  return run;
}

TEST(ObservabilitySwitchTest, SwitchingOffObservabilityMovesNoBill) {
  const std::unique_ptr<workload::Bundle> bundle = RealColdBundle();
  // A prefix of the digest's repeat mix: long enough for plan-cache hits
  // and for drift ticks that invalidate some of them.
  const std::vector<size_t> draws = RepeatMixDraws(*bundle, 300);
  struct Switch {
    const char* name;
    bool exec::PayLessConfig::*field;
  };
  const std::vector<Switch> switches = {
      {"enable_accuracy_tracking",
       &exec::PayLessConfig::enable_accuracy_tracking},
      {"enable_tracing", &exec::PayLessConfig::enable_tracing},
      {"enable_savings_accounting",
       &exec::PayLessConfig::enable_savings_accounting},
      {"enable_flight_recorder", &exec::PayLessConfig::enable_flight_recorder}};
  // Each run has its own client, so the runs go at once, one per thread.
  std::vector<MixRun> runs(switches.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < switches.size(); ++i) {
    threads.emplace_back([&, i] {
      exec::PayLessConfig config = workload::PayLessFullConfig();
      config.*switches[i].field = false;
      runs[i] = RunMix(*bundle, draws, config);
    });
  }
  const MixRun baseline =
      RunMix(*bundle, draws, workload::PayLessFullConfig());
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(baseline.outcomes.size(), draws.size());
  ASSERT_GT(baseline.plan_cache_hits, 0u);
  ASSERT_GT(baseline.drift_ticks, 0u);

  for (size_t s = 0; s < switches.size(); ++s) {
    SCOPED_TRACE(std::string(switches[s].name) + " = false");
    const MixRun& run = runs[s];
    ASSERT_EQ(run.outcomes.size(), baseline.outcomes.size());
    const auto mismatch =
        std::mismatch(run.outcomes.begin(), run.outcomes.end(),
                      baseline.outcomes.begin());
    if (mismatch.first != run.outcomes.end()) {
      const size_t i =
          static_cast<size_t>(mismatch.first - run.outcomes.begin());
      ADD_FAILURE() << "draw " << i << " (instance " << draws[i]
                    << ") billed " << mismatch.first->transactions
                    << " tx with plan " << mismatch.first->plan
                    << "; the default config billed "
                    << mismatch.second->transactions << " tx with plan "
                    << mismatch.second->plan;
    }
    EXPECT_EQ(run.drift_ticks, baseline.drift_ticks);
  }
}

}  // namespace
}  // namespace payless::digest
