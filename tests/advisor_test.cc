// Deployment advisor tests: deterministic shadow replay (twin replays are
// byte-identical, ledger reconciles with the shadow meters), the grid
// knobs actually move the bill (federation is cheaper, a tight cap
// rejects, a store budget re-buys), ranking and recommendation over a
// custom grid, report serialization determinism, the /advisor HTTP route,
// and the record -> advise loop end to end: served traffic journaled,
// read back, replayed to the bill it was charged, and advised on by the
// payless_advisor CLI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/deployment_advisor.h"
#include "advisor/shadow_replay.h"
#include "obs/http_exposition.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/workload_journal.h"
#include "workload/bundle.h"

namespace payless::advisor {
namespace {

/// One-request HTTP client (the server closes after each response).
std::string HttpGetBody(uint16_t port, const std::string& target) {
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
  const size_t header_end = response.find("\r\n\r\n");
  return header_end == std::string::npos ? "" :
                                           response.substr(header_end + 4);
}

/// Small real-data bundle + a synthesized journal over its queries, built
/// once for the whole suite (shadow replays only read them).
class AdvisorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::RealDataOptions options;
    options.scale = 0.04;
    options.seed = 42;
    bundle_ = workload::MakeRealBundle(options, /*per_template=*/2,
                                       /*query_seed=*/1)
                  .release();
    records_ = new std::vector<obs::WorkloadRecord>();
    uint64_t seq = 0;
    for (const workload::QueryInstance& query : bundle_->queries) {
      if (seq >= 8) break;  // enough traffic to bill, small enough for TSan
      obs::WorkloadRecord record;
      record.seq = ++seq;
      record.tenant = seq % 2 == 0 ? "tenant-b" : "tenant-a";
      record.sql = query.sql;
      record.params = query.params;
      record.arrival_us = static_cast<int64_t>(seq) * 1000;
      records_->push_back(std::move(record));
    }
  }

  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
    delete bundle_;
    bundle_ = nullptr;
  }

  static workload::Bundle* bundle_;
  static std::vector<obs::WorkloadRecord>* records_;
};

workload::Bundle* AdvisorTest::bundle_ = nullptr;
std::vector<obs::WorkloadRecord>* AdvisorTest::records_ = nullptr;

TEST_F(AdvisorTest, TwinReplaysAreByteIdenticalAndReconcile) {
  ShadowConfig config;
  config.name = "twin";
  const ReplayResult first = ReplayJournal(*bundle_, *records_, config);
  const ReplayResult second = ReplayJournal(*bundle_, *records_, config);
  ASSERT_TRUE(first.error.ok()) << first.error.ToString();
  EXPECT_EQ(first.queries, static_cast<int64_t>(records_->size()));
  EXPECT_EQ(first.failed, 0);
  EXPECT_EQ(first.rejected, 0);
  EXPECT_GT(first.total_transactions, 0);
  EXPECT_TRUE(first.ledger_matches_meter);
  EXPECT_TRUE(second.ledger_matches_meter);
  EXPECT_EQ(BillFingerprint(first), BillFingerprint(second));
  // Both tenants were served and billed separately.
  ASSERT_EQ(first.bills.size(), 2u);
  EXPECT_GT(first.bills.at("tenant-a").transactions, 0);
  EXPECT_GT(first.bills.at("tenant-b").transactions, 0);
}

TEST_F(AdvisorTest, BatchPrefetchReplayIsDeterministicToo) {
  // All-one-tenant records so consecutive arrivals actually form batches.
  std::vector<obs::WorkloadRecord> solo = *records_;
  for (obs::WorkloadRecord& record : solo) record.tenant = "solo";
  ShadowConfig config;
  config.name = "batch";
  config.batch_prefetch = true;
  config.prefetch_window = 4;
  const ReplayResult first = ReplayJournal(*bundle_, solo, config);
  const ReplayResult second = ReplayJournal(*bundle_, solo, config);
  ASSERT_TRUE(first.error.ok()) << first.error.ToString();
  EXPECT_EQ(first.queries, static_cast<int64_t>(solo.size()));
  EXPECT_TRUE(first.ledger_matches_meter);
  EXPECT_EQ(BillFingerprint(first), BillFingerprint(second));
}

TEST_F(AdvisorTest, FederatedReplayBeatsSingleMarket) {
  ShadowConfig single;
  single.name = "single";
  ShadowConfig federated;
  federated.name = "federated";
  federated.federation_endpoints = 2;
  const ReplayResult single_result =
      ReplayJournal(*bundle_, *records_, single);
  const ReplayResult federated_result =
      ReplayJournal(*bundle_, *records_, federated);
  ASSERT_TRUE(single_result.error.ok());
  ASSERT_TRUE(federated_result.error.ok());
  EXPECT_TRUE(federated_result.ledger_matches_meter);
  // Every dataset is discounted somewhere in a 2-endpoint federation, so
  // buy-site optimization must spend strictly less money.
  EXPECT_LT(federated_result.total_price, single_result.total_price);
}

TEST_F(AdvisorTest, TightCapRejectsQueries) {
  ShadowConfig capped;
  capped.name = "capped";
  capped.tenant_hard_cap = 1;
  const ReplayResult result = ReplayJournal(*bundle_, *records_, capped);
  ASSERT_TRUE(result.error.ok());
  EXPECT_GT(result.rejected, 0);
  EXPECT_EQ(result.queries, static_cast<int64_t>(records_->size()));
}

TEST_F(AdvisorTest, StoreBudgetRebuysEvictedSlabs) {
  // The journal twice over: an unbounded store serves the second pass from
  // what the first bought, a one-byte budget evicts it after every query.
  std::vector<obs::WorkloadRecord> twice = *records_;
  for (const obs::WorkloadRecord& record : *records_) {
    twice.push_back(record);
    twice.back().seq += records_->size();
  }
  ShadowConfig unbounded;
  unbounded.name = "unbounded";
  ShadowConfig budget;
  budget.name = "budget";
  budget.store_budget_bytes = 1;
  const ReplayResult kept = ReplayJournal(*bundle_, twice, unbounded);
  const ReplayResult evicted = ReplayJournal(*bundle_, twice, budget);
  ASSERT_TRUE(kept.error.ok()) << kept.error.ToString();
  ASSERT_TRUE(evicted.error.ok()) << evicted.error.ToString();
  EXPECT_EQ(evicted.failed, 0);
  EXPECT_TRUE(evicted.ledger_matches_meter);
  EXPECT_GT(evicted.total_transactions, kept.total_transactions);
  EXPECT_GT(evicted.total_price, kept.total_price);
}

TEST_F(AdvisorTest, AdviseRanksFeasibleFirstAndRecommendsCheapest) {
  ShadowConfig base;
  base.name = "base";
  ShadowConfig federated;
  federated.name = "federated";
  federated.federation_endpoints = 2;
  ShadowConfig capped;
  capped.name = "capped";
  capped.tenant_hard_cap = 1;

  AdvisorOptions options;
  options.grid = {base, federated, capped};
  const Result<AdvisorReport> report = Advise(*bundle_, *records_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->ranked.size(), 3u);

  // The capped cell rejected traffic → infeasible → ranked last despite
  // its lower bill; the federated cell wins on price among the feasible.
  EXPECT_EQ(report->ranked.back().config.name, "capped");
  EXPECT_FALSE(report->ranked.back().feasible);
  EXPECT_FALSE(report->ranked.back().infeasible_reasons.empty());
  EXPECT_EQ(report->recommended, "federated");
  EXPECT_TRUE(report->ranked.front().feasible);
  EXPECT_EQ(report->seed_name, "base");
  EXPECT_GT(report->seed_price, report->recommended_price);
  EXPECT_GT(report->savings_vs_seed_pct, 0.0);
  EXPECT_EQ(report->records_replayed,
            static_cast<int64_t>(records_->size()));
  for (const CellOutcome& cell : report->ranked) {
    EXPECT_TRUE(cell.twin_identical) << cell.config.name;
    EXPECT_TRUE(cell.replay.ledger_matches_meter) << cell.config.name;
  }

  // The report is deterministic end to end: advising again over the same
  // journal emits byte-identical JSON, and the text names the winner.
  const Result<AdvisorReport> again = Advise(*bundle_, *records_, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(report->ToJson(), again->ToJson());
  EXPECT_NE(report->RenderText().find("recommended: federated"),
            std::string::npos);
  EXPECT_NE(report->ToJson().find("\"recommended\":\"federated\""),
            std::string::npos);
}

TEST_F(AdvisorTest, AdvisorRouteServesTheReportJson) {
  ShadowConfig base;
  base.name = "base";
  AdvisorOptions options;
  options.grid = {base};
  options.twin_check = false;
  Result<AdvisorReport> advised = Advise(*bundle_, *records_, options);
  ASSERT_TRUE(advised.ok());
  auto report =
      std::make_shared<const AdvisorReport>(std::move(advised.value()));

  obs::MetricsRegistry metrics;
  obs::HttpExpositionServer server(&metrics, nullptr);
  RegisterAdvisorRoute(&server, report);
  ASSERT_TRUE(server.Start().ok());
  const std::string body = HttpGetBody(server.port(), "/advisor");
  EXPECT_EQ(body, report->ToJson());
  server.Stop();
}

#ifdef ADVISOR_CLI_BINARY
TEST_F(AdvisorTest, RecordedTrafficReplaysToTheRecordedBill) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("advisor_recorded_traffic_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const fs::path journal_dir = dir / "journal";

  // Record: the seed deployment (the config the seed cell replays: full
  // system, serial calls, savings accounting on) serves the queries for
  // two alternating tenants with the journal on.
  int64_t recorded_tx = 0;
  double recorded_price = 0.0;
  {
    obs::WorkloadJournalOptions journal_options;
    journal_options.dir = journal_dir.string();
    auto journal = obs::WorkloadJournal::Open(journal_options);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    obs::Observability record_obs;
    std::vector<std::unique_ptr<exec::PayLess>> clients;
    for (const char* tenant : {"tenant-a", "tenant-b"}) {
      exec::PayLessConfig config = workload::PayLessFullConfig();
      config.tenant = tenant;
      config.observability = &record_obs;
      config.max_parallel_calls = 1;
      config.enable_tracing = false;
      config.enable_flight_recorder = false;
      config.workload_journal = journal->get();
      clients.push_back(workload::NewPayLessClient(*bundle_, config));
    }
    for (size_t i = 0; i < bundle_->queries.size(); ++i) {
      const workload::QueryInstance& query = bundle_->queries[i];
      ASSERT_TRUE(clients[i % clients.size()]
                      ->Query(query.sql, query.params)
                      .ok())
          << query.sql;
    }
    recorded_tx = record_obs.ledger.total_transactions();
    recorded_price = record_obs.ledger.total_price();
  }

  // The journal holds exactly what was served.
  const obs::JournalReadResult read = obs::ReadJournal(journal_dir.string());
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.decode_failures, 0u);
  ASSERT_EQ(read.records.size(), bundle_->queries.size());

  // The operator's CLI over the journal and the same seeded data. It runs
  // before the in-process advice so the two grid replays never hold their
  // shadow markets at the same time.
  const fs::path json_path = dir / "report.json";
  const std::string command =
      std::string(ADVISOR_CLI_BINARY) + " --journal_dir=" +
      journal_dir.string() + " --scale=0.04 --gate_beats_seed" +
      " --json=" + json_path.string() + " > " + (dir / "cli.log").string() +
      " 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::stringstream written;
  written << std::ifstream(json_path).rdbuf();

  // Every default-grid cell is reproducible and reconciles, the seed cell
  // reproduces the recorded bill, the advice beats the seed, and the CLI
  // wrote exactly this report.
  const Result<AdvisorReport> report =
      Advise(*bundle_, read.records, AdvisorOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const CellOutcome* seed = nullptr;
  for (const CellOutcome& cell : report->ranked) {
    EXPECT_TRUE(cell.twin_identical) << cell.config.name;
    EXPECT_TRUE(cell.replay.ledger_matches_meter) << cell.config.name;
    if (cell.config.name == kSeedConfigName) seed = &cell;
  }
  ASSERT_NE(seed, nullptr);
  EXPECT_EQ(seed->replay.total_transactions, recorded_tx);
  EXPECT_NEAR(seed->replay.total_price, recorded_price, 1e-9);
  ASSERT_FALSE(report->recommended.empty());
  EXPECT_LT(report->recommended_price, report->seed_price);
  EXPECT_EQ(written.str(), report->ToJson() + "\n");
  fs::remove_all(dir);
}
#endif  // ADVISOR_CLI_BINARY

}  // namespace
}  // namespace payless::advisor
