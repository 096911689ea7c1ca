// Crash-consistent recovery: the billing contract of the durability layer.
//
// Every test compares a crash-and-restart run against an uncrashed twin on
// the same workload. The invariants are monetary:
//   1. a harvest whose WAL record (or snapshot) is durable is NEVER bought
//      again after a restart — the warm store serves it for free;
//   2. a crash before/mid append loses exactly the harvests that were
//      billed but not yet durable — the restarted client re-buys those and
//      nothing else;
//   3. nothing is ever served that was not paid for: recovered store rows
//      are always a subset of the twin's;
//   4. the seq filter makes the snapshot/WAL overlap window (crash between
//      snapshot rename and log reset) apply-once;
//   5. the ledgers reconcile after recovery: cost-ledger spend equals the
//      billing meter, and the savings ledger's arithmetic holds.
// The fixture is a small bind-join mix; RealWorkloadRestartsBillLikeTheTwin
// checks invariants 1 and 2 on the real Fig. 10a workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <memory>
#include <numeric>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/binio.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "durability_fixture.h"
#include "market/fault_injector.h"
#include "workload/bundle.h"

namespace payless::exec {
namespace {

namespace fs = std::filesystem;

using durability::DecodeHarvest;
using durability::HarvestRecord;
using market::CrashPlan;
using market::CrashPoint;
using market::FaultInjector;
using market::FaultProfile;

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class DurabilityRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("recovery_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // The uncrashed twin: round 1 (cold) + round 2 (warm, same mix). Its
    // per-harvest transaction trace is the ground truth for what a crash
    // at harvest k forfeits.
    twin_ = fixture_.NewClient();
    twin_->connector()->AddListener(
        [this](const market::RestCall&, const market::CallResult& result) {
          harvest_tx_.push_back(result.transactions);
        });
    twin_round1_results_ = DurabilityFixture::RunMix(twin_.get());
    round1_spend_ = twin_->meter().total_transactions();
    num_harvests_ = harvest_tx_.size();
    twin_round2_results_ = DurabilityFixture::RunMix(twin_.get());
    round2_spend_ = twin_->meter().total_transactions() - round1_spend_;
    ASSERT_GE(num_harvests_, 3u) << "fixture must produce a real harvest run";
  }

  void TearDown() override { fs::remove_all(dir_); }

  PayLessConfig DurableConfig() {
    PayLessConfig config;
    config.durability.dir = dir_.string();
    // Explicit SnapshotNow only — the crash-point tests control compaction.
    config.durability.snapshot_every_records = 0;
    return config;
  }

  /// Recovers a fresh client from `dir_`, checks the ledgers reconcile,
  /// and returns it.
  std::unique_ptr<PayLess> Restart() {
    auto client = fixture_.NewClient(DurableConfig());
    EXPECT_TRUE(client->durability() != nullptr);
    EXPECT_TRUE(client->observability()->savings.Reconciles());
    return client;
  }

  /// Runs the mix on a recovered client and asserts the billing contract:
  /// round-2 results identical to the twin's, spend = twin round-2 spend +
  /// the transactions of the `lost` harvests (those billed before the
  /// crash but never durable), and ledger == meter afterwards.
  void ExpectWarmRound(PayLess* client, int64_t lost_transactions) {
    const std::vector<std::vector<Row>> results =
        DurabilityFixture::RunMix(client);
    EXPECT_EQ(results, twin_round2_results_);
    EXPECT_EQ(client->meter().total_transactions(),
              round2_spend_ + lost_transactions);
    EXPECT_EQ(client->observability()->ledger.total_transactions(),
              client->meter().total_transactions());
    EXPECT_TRUE(client->observability()->savings.Reconciles());
    // Served nothing unpaid, forgot nothing paid: after the warm round the
    // store converges to exactly the twin's coverage.
    EXPECT_EQ(client->store().TotalStoredRows(),
              twin_->store().TotalStoredRows());
  }

  /// Sum of the transactions of harvests [from, to) of the round-1 trace.
  int64_t TraceSpend(size_t from, size_t to) const {
    int64_t total = 0;
    for (size_t i = from; i < to && i < harvest_tx_.size(); ++i) {
      total += harvest_tx_[i];
    }
    return total;
  }

  DurabilityFixture fixture_;
  fs::path dir_;
  std::unique_ptr<PayLess> twin_;
  std::vector<int64_t> harvest_tx_;  // twin round-1 per-harvest transactions
  std::vector<std::vector<Row>> twin_round1_results_;
  std::vector<std::vector<Row>> twin_round2_results_;
  int64_t round1_spend_ = 0;
  int64_t round2_spend_ = 0;
  size_t num_harvests_ = 0;
};

TEST_F(DurabilityRecoveryTest, WarmRestartReplaysTheLogAndRebuysNothing) {
  auto client = fixture_.NewClient(DurableConfig());
  ASSERT_NE(client->durability(), nullptr);
  EXPECT_FALSE(client->durability()->recovery().recovered);
  const std::vector<std::vector<Row>> results =
      DurabilityFixture::RunMix(client.get());
  EXPECT_EQ(results, twin_round1_results_);
  EXPECT_EQ(client->meter().total_transactions(), round1_spend_);
  const size_t stored_rows = client->store().TotalStoredRows();
  const size_t stats_feedbacks = client->stats().TotalFeedbacks();
  client.reset();  // clean shutdown — but nothing was flushed at exit:
                   // durability never relies on destructors

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_TRUE(info.recovered);
  EXPECT_FALSE(info.had_snapshot);
  EXPECT_FALSE(info.wal_torn_tail);
  EXPECT_EQ(info.replayed_records, num_harvests_);
  EXPECT_EQ(info.skipped_records, 0u);
  EXPECT_EQ(info.recovered_rows, 0u);  // rows came from replay, not a snapshot
  EXPECT_EQ(restarted->store().TotalStoredRows(), stored_rows);
  // Replay runs the same feedback path a live harvest does.
  EXPECT_EQ(restarted->stats().TotalFeedbacks(), stats_feedbacks);
  ExpectWarmRound(restarted.get(), /*lost_transactions=*/0);
}

TEST_F(DurabilityRecoveryTest, SnapshotCompactsAndRestoresEverything) {
  auto client = fixture_.NewClient(DurableConfig());
  (void)DurabilityFixture::RunMix(client.get());
  const size_t stored_rows = client->store().TotalStoredRows();
  ASSERT_TRUE(client->durability()->SnapshotNow().ok());
  EXPECT_EQ(client->durability()->wal_bytes(), 0);  // compaction reset it
  client.reset();

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_TRUE(info.recovered);
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.snapshot_seq, num_harvests_);
  EXPECT_EQ(info.replayed_records, 0u);
  EXPECT_EQ(info.recovered_rows, stored_rows);
  EXPECT_GT(info.recovered_views, 0u);
  EXPECT_GT(info.recovered_stats_tables, 0u);
  EXPECT_EQ(restarted->store().TotalStoredRows(), stored_rows);
  // Snapshots keep only what was paid for: the restarted plan cache is
  // empty, and with nothing replayed the drift epoch has not ticked.
  EXPECT_EQ(restarted->plan_cache().Stats().entries, 0u);
  EXPECT_EQ(restarted->accuracy().drift_epoch(), 0u);

  ExpectWarmRound(restarted.get(), /*lost_transactions=*/0);
  // The warm round plans each template once; the mix's repeat then hits.
  EXPECT_GT(restarted->plan_cache().Stats().hits, 0u);
}

TEST_F(DurabilityRecoveryTest, RetiredStatsTagRecoversToTheSeededEstimator) {
  auto client = fixture_.NewClient(DurableConfig());
  (void)DurabilityFixture::RunMix(client.get());
  const size_t stored_rows = client->store().TotalStoredRows();
  ASSERT_TRUE(client->durability()->SnapshotNow().ok());
  client.reset();

  // Rewrite Weather's estimator blob as a well-formed blob under kind tag
  // 3, which framed the per-dimension independent histograms before they
  // were retired: [u8 3][box][f64 total][u64 feedbacks][u32 dims = 0].
  const std::string snap_path = (dir_ / "store.snap").string();
  durability::SnapshotData snap;
  ASSERT_TRUE(durability::ReadSnapshotFile(snap_path, &snap).ok());
  const catalog::TableDef* weather = fixture_.cat_.FindTable("Weather");
  size_t retired = 0;
  for (auto& [table, blob] : snap.stats_tables) {
    if (table != "Weather") continue;
    blob.clear();
    common::BinWriter w(&blob);
    w.U8(3);
    common::WriteBox(w, weather->FullRegion());
    w.F64(999.0);
    w.U64(7);
    w.U32(0);
    ++retired;
  }
  ASSERT_EQ(retired, 1u);
  ASSERT_GT(snap.stats_tables.size(), 1u);
  ASSERT_TRUE(durability::WriteSnapshotFile(snap_path, snap).ok());

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.recovered_stats_tables, snap.stats_tables.size() - 1);
  EXPECT_EQ(info.recovered_rows, stored_rows);
  // The undecodable blob leaves Weather on its catalog-seeded estimator.
  EXPECT_DOUBLE_EQ(
      restarted->stats().EstimateRows("Weather", weather->FullRegion()),
      static_cast<double>(weather->cardinality));
  EXPECT_EQ(restarted->stats().Info("Weather").feedbacks, 0u);
}

TEST_F(DurabilityRecoveryTest, AutoSnapshotCompactsDuringTheRun) {
  PayLessConfig config = DurableConfig();
  config.durability.snapshot_every_records = 3;
  auto client = fixture_.NewClient(config);
  (void)DurabilityFixture::RunMix(client.get());
  EXPECT_TRUE(fs::exists(dir_ / "store.snap"));
  const size_t stored_rows = client->store().TotalStoredRows();
  client.reset();

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_TRUE(info.had_snapshot);
  // Snapshot base + the post-snapshot log tail together rebuild the store.
  EXPECT_EQ(info.snapshot_seq + info.replayed_records, num_harvests_);
  EXPECT_LT(info.replayed_records, num_harvests_);
  EXPECT_EQ(restarted->store().TotalStoredRows(), stored_rows);
  ExpectWarmRound(restarted.get(), /*lost_transactions=*/0);
}

TEST_F(DurabilityRecoveryTest, CrashBeforeLogRebuysExactlyTheLostSlab) {
  // The last harvest of round 1 is billed but dies before its log append:
  // the ONE case where a restart legitimately pays again — and it pays
  // exactly that harvest's transactions, nothing more.
  FaultInjector injector(FaultProfile{});
  CrashPlan plan;
  plan.point = CrashPoint::kBeforeHarvestLog;
  plan.after_hits = static_cast<int>(num_harvests_) - 1;
  injector.ArmCrash(plan);

  PayLessConfig config = DurableConfig();
  config.durability.crash_injector = &injector;
  auto client = fixture_.NewClient(config);
  const std::vector<std::vector<Row>> results =
      DurabilityFixture::RunMix(client.get());
  EXPECT_EQ(results, twin_round1_results_);  // in-memory it kept serving
  EXPECT_EQ(client->meter().total_transactions(), round1_spend_);
  ASSERT_TRUE(client->durability()->dead());
  EXPECT_EQ(injector.stats().crashes, 1);
  client.reset();

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_EQ(info.replayed_records, num_harvests_ - 1);
  EXPECT_FALSE(info.wal_torn_tail);
  // Strict subset: the lost slab is not served (it was never durable).
  EXPECT_LT(restarted->store().TotalStoredRows(),
            twin_->store().TotalStoredRows());
  ExpectWarmRound(restarted.get(),
                  TraceSpend(num_harvests_ - 1, num_harvests_));
}

TEST_F(DurabilityRecoveryTest, CrashMidLogTearsTheTailAndRebuysThatSlab) {
  FaultInjector injector(FaultProfile{});
  CrashPlan plan;
  plan.point = CrashPoint::kMidHarvestLog;
  plan.after_hits = static_cast<int>(num_harvests_) - 1;
  plan.torn_bytes = 13;  // header + 5 payload bytes reach the disk
  injector.ArmCrash(plan);

  PayLessConfig config = DurableConfig();
  config.durability.crash_injector = &injector;
  auto client = fixture_.NewClient(config);
  (void)DurabilityFixture::RunMix(client.get());
  ASSERT_TRUE(client->durability()->dead());
  client.reset();

  // The torn frame is on disk; recovery must drop exactly it.
  const common::FrameReadResult wal =
      common::ReadFramedFile((dir_ / "harvest.wal").string());
  EXPECT_TRUE(wal.torn_tail);
  EXPECT_EQ(wal.payloads.size(), num_harvests_ - 1);

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_TRUE(info.wal_torn_tail);
  EXPECT_EQ(info.replayed_records, num_harvests_ - 1);
  ExpectWarmRound(restarted.get(),
                  TraceSpend(num_harvests_ - 1, num_harvests_));
}

TEST_F(DurabilityRecoveryTest, CrashAfterLogLosesNotOneTransaction) {
  // The record reached the disk before the death: the restarted client's
  // bill is byte-identical to the uncrashed twin's.
  FaultInjector injector(FaultProfile{});
  CrashPlan plan;
  plan.point = CrashPoint::kAfterHarvestLog;
  plan.after_hits = static_cast<int>(num_harvests_) - 1;
  injector.ArmCrash(plan);

  PayLessConfig config = DurableConfig();
  config.durability.crash_injector = &injector;
  auto client = fixture_.NewClient(config);
  (void)DurabilityFixture::RunMix(client.get());
  ASSERT_TRUE(client->durability()->dead());
  const size_t stored_rows = client->store().TotalStoredRows();
  client.reset();

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_EQ(info.replayed_records, num_harvests_);
  EXPECT_FALSE(info.wal_torn_tail);
  EXPECT_EQ(restarted->store().TotalStoredRows(), stored_rows);
  ExpectWarmRound(restarted.get(), /*lost_transactions=*/0);
}

TEST_F(DurabilityRecoveryTest, CrashMidSnapshotKeepsTheLogAuthoritative) {
  FaultInjector injector(FaultProfile{});
  CrashPlan plan;
  plan.point = CrashPoint::kMidSnapshot;
  injector.ArmCrash(plan);

  PayLessConfig config = DurableConfig();
  config.durability.crash_injector = &injector;
  auto client = fixture_.NewClient(config);
  (void)DurabilityFixture::RunMix(client.get());
  ASSERT_TRUE(client->durability()->SnapshotNow().ok());  // "dies" inside
  ASSERT_TRUE(client->durability()->dead());
  client.reset();

  // Only the garbage tmp exists; the real snapshot path was never touched
  // and the WAL was never reset.
  EXPECT_TRUE(fs::exists(dir_ / "store.snap.tmp"));
  EXPECT_FALSE(fs::exists(dir_ / "store.snap"));

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_FALSE(info.had_snapshot);
  EXPECT_EQ(info.replayed_records, num_harvests_);
  ExpectWarmRound(restarted.get(), /*lost_transactions=*/0);
}

TEST_F(DurabilityRecoveryTest, FailedAutoSnapshotRetriesOnlyOnSchedule) {
  // The snapshot's tmp path is a directory, so every snapshot write fails.
  // A failed automatic snapshot is retried only after another
  // snapshot_every_records harvests: at harvests 2, 4, 6, ... of the
  // round, not at every harvest after the first failure. The kMidSnapshot
  // crash point counts the attempts: armed to let `attempts` arrivals
  // pass, it must stay quiet through the round and fire on the next one.
  fs::create_directory(dir_ / "store.snap.tmp");
  FaultInjector injector(FaultProfile{});
  PayLessConfig config = DurableConfig();
  config.durability.snapshot_every_records = 2;
  config.durability.crash_injector = &injector;
  auto client = fixture_.NewClient(config);
  const size_t attempts = num_harvests_ / 2;
  CrashPlan plan;
  plan.point = CrashPoint::kMidSnapshot;
  plan.after_hits = static_cast<int>(attempts);
  injector.ArmCrash(plan);

  EXPECT_EQ(DurabilityFixture::RunMix(client.get()), twin_round1_results_);
  EXPECT_EQ(injector.stats().crashes, 0);
  EXPECT_FALSE(client->durability()->dead());
  EXPECT_EQ(client->observability()
                ->metrics.GetCounter("payless_snapshots_total")
                ->value(),
            0);
  // /store still counts records since the last good snapshot: none ran.
  const std::string json = client->durability()->StatsJson();
  EXPECT_NE(json.find("\"records_since_snapshot\":" +
                      std::to_string(num_harvests_)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("store.snap"), std::string::npos) << json;

  // The next attempt is the first one past `attempts`: the crash fires.
  EXPECT_TRUE(client->durability()->SnapshotNow().ok());
  EXPECT_EQ(injector.stats().crashes, 1);
  EXPECT_TRUE(client->durability()->dead());
}

TEST_F(DurabilityRecoveryTest,
       CrashBetweenSnapshotRenameAndLogResetAppliesOnce) {
  // The overlap window: snapshot committed, WAL still holds every record.
  // The seq filter must skip all of them — applying even one twice would
  // double rows in the store.
  FaultInjector injector(FaultProfile{});
  CrashPlan plan;
  plan.point = CrashPoint::kAfterSnapshotBeforeReset;
  injector.ArmCrash(plan);

  PayLessConfig config = DurableConfig();
  config.durability.crash_injector = &injector;
  auto client = fixture_.NewClient(config);
  (void)DurabilityFixture::RunMix(client.get());
  const size_t stored_rows = client->store().TotalStoredRows();
  ASSERT_TRUE(client->durability()->SnapshotNow().ok());
  ASSERT_TRUE(client->durability()->dead());
  client.reset();

  EXPECT_TRUE(fs::exists(dir_ / "store.snap"));
  const common::FrameReadResult wal =
      common::ReadFramedFile((dir_ / "harvest.wal").string());
  EXPECT_EQ(wal.payloads.size(), num_harvests_);  // never reset

  auto restarted = Restart();
  const durability::RecoveryInfo& info = restarted->durability()->recovery();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.snapshot_seq, num_harvests_);
  EXPECT_EQ(info.skipped_records, num_harvests_);
  EXPECT_EQ(info.replayed_records, 0u);
  EXPECT_EQ(restarted->store().TotalStoredRows(), stored_rows);
  ExpectWarmRound(restarted.get(), /*lost_transactions=*/0);
}

TEST_F(DurabilityRecoveryTest, FailedAppendFreezesTheDiskAndSaysSo) {
  // The log's path turns into a directory under a live client: the
  // snapshot's log reset fails, and so does every append after it. The
  // first failed append freezes the disk; each billed harvest still
  // serves from memory, and none is counted as logged.
  auto client = fixture_.NewClient(DurableConfig());
  fs::remove(dir_ / "harvest.wal");
  fs::create_directory(dir_ / "harvest.wal");
  EXPECT_FALSE(client->durability()->SnapshotNow().ok());
  EXPECT_FALSE(client->durability()->dead());  // the log stays authoritative

  const std::vector<std::vector<Row>> results =
      DurabilityFixture::RunMix(client.get());
  EXPECT_EQ(results, twin_round1_results_);
  EXPECT_EQ(client->meter().total_transactions(), round1_spend_);
  EXPECT_TRUE(client->durability()->dead());
  EXPECT_EQ(client->durability()->next_seq(), 1u);
  obs::MetricsRegistry& metrics = client->observability()->metrics;
  const obs::LatencyHistogram* append_micros =
      metrics.GetLatencyHistogram("payless_wal_append_micros");
  EXPECT_EQ(metrics.GetCounter("payless_wal_appends_total")->value(), 0);
  EXPECT_EQ(append_micros->count(), 0);
  const std::string json = client->durability()->StatsJson();
  EXPECT_NE(json.find("\"dead\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("harvest.wal"), std::string::npos) << json;
}

TEST_F(DurabilityRecoveryTest,
       FailedRecoveryFreezesTheDiskInsteadOfCuttingTheLog) {
  // An unreadable snapshot beside a durable log: recovery fails before it
  // reads the log. The restarted client serves (and bills) from memory,
  // and neither file changes — the next good recovery can still read the
  // log.
  {
    auto client = fixture_.NewClient(DurableConfig());
    (void)DurabilityFixture::RunMix(client.get());
  }
  {
    std::ofstream garbage(dir_ / "store.snap", std::ios::binary);
    garbage << "not a snapshot";
  }
  const std::string snap_before = ReadBytes(dir_ / "store.snap");
  const std::string wal_before = ReadBytes(dir_ / "harvest.wal");
  ASSERT_FALSE(wal_before.empty());

  auto restarted = Restart();
  EXPECT_TRUE(restarted->durability()->dead());
  EXPECT_FALSE(restarted->durability()->recovery().recovered);
  const std::vector<std::vector<Row>> results =
      DurabilityFixture::RunMix(restarted.get());
  EXPECT_EQ(results, twin_round1_results_);
  EXPECT_EQ(restarted->meter().total_transactions(), round1_spend_);
  EXPECT_TRUE(restarted->durability()->SnapshotNow().ok());  // frozen: no-op
  EXPECT_EQ(ReadBytes(dir_ / "store.snap"), snap_before);
  EXPECT_EQ(ReadBytes(dir_ / "harvest.wal"), wal_before);
  const std::string json = restarted->durability()->StatsJson();
  EXPECT_NE(json.find("\"dead\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("store.snap"), std::string::npos) << json;
}

TEST_F(DurabilityRecoveryTest, RepeatedCrashesConvergeToTheTwinBill) {
  // Crash-restart until convergence. Each incarnation persists its first
  // fresh harvest, then dies on the second (a soft death also un-persists
  // everything after it), so incarnation k starts with harvests [0, k)
  // durable and re-bills exactly the tail [k, D). The loop converges in
  // exactly D incarnations, the total spend is the twin's plus the
  // re-bought never-durable tails, and the survivor's warm round matches
  // the twin bill to the transaction.
  int64_t total_spend = 0;
  int64_t expected_spend = 0;
  size_t incarnation = 0;
  std::unique_ptr<PayLess> client;
  for (;; ++incarnation) {
    ASSERT_LT(incarnation, num_harvests_ + 2) << "crash loop did not converge";
    FaultInjector injector(FaultProfile{});
    CrashPlan plan;
    plan.point = CrashPoint::kBeforeHarvestLog;
    plan.after_hits = 1;  // persist one fresh harvest, die on the next
    injector.ArmCrash(plan);
    PayLessConfig config = DurableConfig();
    config.durability.crash_injector = &injector;
    client = fixture_.NewClient(config);
    EXPECT_EQ(client->durability()->recovery().replayed_records, incarnation);
    (void)DurabilityFixture::RunMix(client.get());
    total_spend += client->meter().total_transactions();
    expected_spend += TraceSpend(incarnation, num_harvests_);
    if (injector.stats().crashes == 0) break;  // bought <= 1 fresh harvest
    client.reset();
  }
  EXPECT_EQ(incarnation, num_harvests_ - 1);
  EXPECT_EQ(total_spend, expected_spend);
  // <= and not ==: a warm re-buy issues REMAINDER calls for just the missing
  // area, so its views overlap less than the twin's full-region calls and
  // TotalStoredRows (which counts per-view) can be slightly smaller. The
  // billing and result equalities above prove the coverage is identical.
  EXPECT_LE(client->store().TotalStoredRows(),
            twin_->store().TotalStoredRows());
  const int64_t before_warm = client->meter().total_transactions();
  const std::vector<std::vector<Row>> warm =
      DurabilityFixture::RunMix(client.get());
  EXPECT_EQ(warm, twin_round2_results_);
  EXPECT_EQ(client->meter().total_transactions() - before_warm, round2_spend_);
}

TEST_F(DurabilityRecoveryTest, RealWorkloadRestartsBillLikeTheTwin) {
  // The same contract at workload scale: the Fig. 10a mix (scale 0.10, ten
  // instances per template) against an uncrashed twin of its own. Serial
  // calls make every client's harvest sequence the twin's, so "the last
  // round-1 harvest" is the same call for every client.
  workload::RealDataOptions options;
  options.scale = 0.10;
  options.seed = 42;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/10,
                                               /*query_seed=*/1);
  PayLessConfig base = workload::PayLessFullConfig();
  base.max_parallel_calls = 1;
  const auto run_round = [&bundle](PayLess* client) {
    const int64_t before = client->meter().total_transactions();
    for (const workload::QueryInstance& query : bundle->queries) {
      EXPECT_TRUE(client->Query(query.sql, query.params).ok()) << query.sql;
    }
    return client->meter().total_transactions() - before;
  };

  auto twin = workload::NewPayLessClient(*bundle, base);
  std::vector<int64_t> harvest_tx;
  twin->connector()->AddListener(
      [&harvest_tx](const market::RestCall&, const market::CallResult& r) {
        harvest_tx.push_back(r.transactions);
      });
  const int64_t round1_spend = run_round(twin.get());
  const size_t num_harvests = harvest_tx.size();
  ASSERT_GE(num_harvests, 2u);
  // The slab a crash before the last round-1 harvest's log append forfeits.
  const int64_t lost_slab_tx = harvest_tx.back();
  const int64_t round2_spend = run_round(twin.get());

  // Runs round 1 durably into `name`, compacting every `snapshot_every`
  // harvests (0 = never) and dying at `point` on the last harvest unless
  // `point` is null; returns the restarted client.
  const auto restart_after_round1 = [&](const char* name,
                                        const CrashPoint* point,
                                        size_t snapshot_every) {
    PayLessConfig config = base;
    config.durability.dir = (dir_ / name).string();
    config.durability.snapshot_every_records = snapshot_every;
    FaultInjector injector(FaultProfile{});
    if (point != nullptr) {
      CrashPlan plan;
      plan.point = *point;
      plan.after_hits = static_cast<int>(num_harvests) - 1;
      injector.ArmCrash(plan);
      config.durability.crash_injector = &injector;
    }
    auto cold = workload::NewPayLessClient(*bundle, config);
    EXPECT_EQ(run_round(cold.get()), round1_spend) << name;
    EXPECT_EQ(injector.stats().crashes, point != nullptr ? 1 : 0) << name;
    cold.reset();
    config.durability.crash_injector = nullptr;
    return workload::NewPayLessClient(*bundle, config);
  };

  // Clean restart: every harvest replays from the log, none from a
  // snapshot, and round 2 bills exactly the twin's round 2.
  auto clean = restart_after_round1("clean", nullptr, 0);
  const durability::RecoveryInfo& info = clean->durability()->recovery();
  EXPECT_EQ(info.replayed_records, num_harvests);
  EXPECT_EQ(info.recovered_rows, 0u);
  EXPECT_EQ(run_round(clean.get()), round2_spend);

  // Snapshot restart: the views and statistics come from the snapshot,
  // the rest from the log tail, and every plan is re-derived from them.
  auto compacted = restart_after_round1("snapshot", nullptr, 64);
  const durability::RecoveryInfo& compacted_info =
      compacted->durability()->recovery();
  EXPECT_TRUE(compacted_info.had_snapshot);
  EXPECT_GT(compacted_info.replayed_records, 0u);
  EXPECT_EQ(compacted_info.snapshot_seq + compacted_info.replayed_records,
            num_harvests);
  EXPECT_EQ(run_round(compacted.get()), round2_spend);

  // Died after the last harvest's log append: nothing lost.
  const CrashPoint after_log = CrashPoint::kAfterHarvestLog;
  auto crashed = restart_after_round1("crash", &after_log, 0);
  EXPECT_EQ(run_round(crashed.get()), round2_spend);

  // Died before it: the restart may re-buy at most that one slab (less
  // when round 2 never reads its region again), never a durable one.
  const CrashPoint before_log = CrashPoint::kBeforeHarvestLog;
  auto rebuyer = restart_after_round1("lost", &before_log, 0);
  const int64_t rebuy = run_round(rebuyer.get()) - round2_spend;
  EXPECT_GE(rebuy, 0);
  EXPECT_LE(rebuy, lost_slab_tx);
}

TEST_F(DurabilityRecoveryTest, RecoveredFederatedPlanKeepsItsBuySites) {
  // A durable two-endpoint client plans every template, repeats it (a plan
  // cache hit), snapshots and restarts. kFull consistency makes every run
  // buy, and threshold 0 keeps the live client's plans cached. The
  // restarted client re-plans each template from the recovered statistics
  // (a miss) and must buy exactly where and what the live repeat bought.
  workload::RealDataOptions options;
  options.scale = 0.02;
  const auto bundle = workload::MakeRealBundle(options, /*per_template=*/1,
                                               /*query_seed=*/1);
  std::vector<workload::FederatedEndpointSpec> specs(2);
  specs[0].id = "east";
  specs[1].id = "west";
  auto federation = workload::MakeFederatedMarket(*bundle, specs, 42);
  PayLessConfig config = workload::PayLessFullConfig();
  config.consistency = ConsistencyLevel::kFull;
  config.qerror_invalidation_threshold = 0;
  config.durability.dir = (dir_ / "federated").string();
  config.durability.snapshot_every_records = 0;

  struct Bill {
    std::vector<std::string> buy_sites;
    std::vector<int64_t> transactions;  // per endpoint
    std::vector<double> price;          // per endpoint
  };
  // Runs `query` once; the bill is what each endpoint's meter moved by.
  const auto run = [](PayLess* client, const workload::QueryInstance& query,
                      Bill* bill) {
    federation::EndpointRouter* router = client->router();
    std::vector<int64_t> tx_before;
    std::vector<double> price_before;
    for (size_t i = 0; i < router->num_endpoints(); ++i) {
      tx_before.push_back(router->connector(i)->meter().total_transactions());
      price_before.push_back(router->connector(i)->meter().total_price());
    }
    const Result<QueryReport> report =
        client->QueryWithReport(query.sql, query.params);
    EXPECT_TRUE(report.ok()) << query.sql;
    *bill = Bill{};
    for (const core::AccessSpec& access : report->plan.accesses) {
      bill->buy_sites.push_back(access.buy_site);
    }
    for (size_t i = 0; i < router->num_endpoints(); ++i) {
      bill->transactions.push_back(
          router->connector(i)->meter().total_transactions() - tx_before[i]);
      bill->price.push_back(router->connector(i)->meter().total_price() -
                            price_before[i]);
    }
    return report->counters.plan_cache_hits;
  };

  std::vector<Bill> repeats(bundle->queries.size());
  {
    auto client = workload::NewFederatedPayLessClient(*bundle, federation.get(),
                                                      config);
    for (size_t q = 0; q < bundle->queries.size(); ++q) {
      Bill first;
      EXPECT_EQ(run(client.get(), bundle->queries[q], &first), 0u);
      EXPECT_EQ(run(client.get(), bundle->queries[q], &repeats[q]), 1u);
    }
    ASSERT_TRUE(client->durability()->SnapshotNow().ok());
  }
  bool any_west = false;
  for (const Bill& bill : repeats) {
    any_west |= std::count(bill.buy_sites.begin(), bill.buy_sites.end(),
                           "west") > 0;
  }
  ASSERT_TRUE(any_west) << "every access bought at the primary anyway";

  auto recovered = workload::NewFederatedPayLessClient(
      *bundle, federation.get(), config);
  for (size_t q = 0; q < bundle->queries.size(); ++q) {
    SCOPED_TRACE(bundle->queries[q].sql);
    Bill after;
    EXPECT_EQ(run(recovered.get(), bundle->queries[q], &after), 0u);
    EXPECT_EQ(after.buy_sites, repeats[q].buy_sites);
    EXPECT_EQ(after.transactions, repeats[q].transactions);
    ASSERT_EQ(after.price.size(), repeats[q].price.size());
    for (size_t i = 0; i < after.price.size(); ++i) {
      EXPECT_NEAR(after.price[i], repeats[q].price[i], 1e-9);
    }
  }
}

#ifdef CRASH_CHILD_BINARY
TEST_F(DurabilityRecoveryTest, HardKillAndRestartIsBillingCorrect) {
  // The real thing: a child PROCESS dies via _Exit(42) at each crash point
  // (no destructors, no flushes), and this process recovers from whatever
  // bytes the kill left behind. The WAL on disk tells us exactly which
  // harvests were durable; the recovered client may re-buy only the rest.
  const struct {
    const char* name;
    int point;
    bool torn;
  } kCases[] = {
      {"before-log", static_cast<int>(CrashPoint::kBeforeHarvestLog), false},
      {"mid-log", static_cast<int>(CrashPoint::kMidHarvestLog), true},
      {"after-log", static_cast<int>(CrashPoint::kAfterHarvestLog), false},
  };
  const int kAfterHits = 2;  // die on the third harvest, mid-run
  for (const auto& test_case : kCases) {
    const fs::path case_dir = dir_ / test_case.name;
    fs::create_directories(case_dir);
    const fs::path dump_path = case_dir / "flight_dump.json";
    const std::string command = std::string(CRASH_CHILD_BINARY) + " " +
                                case_dir.string() + " " +
                                std::to_string(test_case.point) + " " +
                                std::to_string(kAfterHits) + " " +
                                dump_path.string();
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << test_case.name;
    ASSERT_EQ(WEXITSTATUS(status), 42) << test_case.name;

    // The _Exit path dumped the flight recorder: the ring's last moments
    // are on disk, well-formed, and include the queries that ran before
    // the kill (with their per-stage decomposition and spans).
    ASSERT_TRUE(fs::exists(dump_path)) << test_case.name;
    std::ifstream dump_in(dump_path);
    std::stringstream dump_content;
    dump_content << dump_in.rdbuf();
    const std::string dump = dump_content.str();
    EXPECT_EQ(dump.front(), '{') << test_case.name;
    EXPECT_EQ(dump.back(), '}') << test_case.name;
    EXPECT_NE(dump.find("\"entries\":["), std::string::npos) << test_case.name;
    EXPECT_NE(dump.find("\"kind\":\"query\""), std::string::npos)
        << test_case.name;
    EXPECT_NE(dump.find("\"stages\":{"), std::string::npos) << test_case.name;
    EXPECT_NE(dump.find("\"spans\":["), std::string::npos) << test_case.name;

    // What actually survived the kill.
    const common::FrameReadResult wal =
        common::ReadFramedFile((case_dir / "harvest.wal").string());
    EXPECT_EQ(wal.torn_tail, test_case.torn) << test_case.name;
    const size_t durable =
        test_case.point == static_cast<int>(CrashPoint::kAfterHarvestLog)
            ? static_cast<size_t>(kAfterHits) + 1
            : static_cast<size_t>(kAfterHits);
    ASSERT_EQ(wal.payloads.size(), durable) << test_case.name;
    int64_t durable_tx = 0;
    for (const std::string& payload : wal.payloads) {
      HarvestRecord record;
      ASSERT_TRUE(DecodeHarvest(payload, &record));
      durable_tx += record.transactions;
    }
    EXPECT_EQ(durable_tx, TraceSpend(0, durable)) << test_case.name;

    // Recover against the kill's file state and run the FULL mix: the
    // durable prefix is served from the warm store, everything after it is
    // bought as if for the first time — round-1 minus the durable spend,
    // plus the twin's warm round-2.
    PayLessConfig config;
    config.durability.dir = case_dir.string();
    config.durability.snapshot_every_records = 0;
    auto restarted = fixture_.NewClient(config);
    const durability::RecoveryInfo& info =
        restarted->durability()->recovery();
    EXPECT_EQ(info.replayed_records, durable) << test_case.name;
    EXPECT_EQ(info.wal_torn_tail, test_case.torn) << test_case.name;

    const std::vector<std::vector<Row>> round1 =
        DurabilityFixture::RunMix(restarted.get());
    EXPECT_EQ(round1, twin_round1_results_) << test_case.name;
    EXPECT_EQ(restarted->meter().total_transactions(),
              round1_spend_ - durable_tx)
        << test_case.name;
    const std::vector<std::vector<Row>> round2 =
        DurabilityFixture::RunMix(restarted.get());
    EXPECT_EQ(round2, twin_round2_results_) << test_case.name;
    EXPECT_EQ(restarted->meter().total_transactions(),
              round1_spend_ - durable_tx + round2_spend_)
        << test_case.name;
    // <= — remainder calls after a warm restart overlap less than the
    // twin's cold calls did (see RepeatedCrashesConvergeToTheTwinBill).
    EXPECT_LE(restarted->store().TotalStoredRows(),
              twin_->store().TotalStoredRows())
        << test_case.name;
    EXPECT_EQ(restarted->observability()->ledger.total_transactions(),
              restarted->meter().total_transactions())
        << test_case.name;
  }
}
#endif  // CRASH_CHILD_BINARY

}  // namespace
}  // namespace payless::exec
