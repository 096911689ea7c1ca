// Write-ahead-log and snapshot-file unit tests, including the torn-tail
// exhaustion required by the durability contract: a log truncated at EVERY
// byte offset inside its final frame must recover to exactly the preceding
// records — the partial record is dropped, never applied, and the intact
// prefix is never double-applied.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/binio.h"
#include "common/framing.h"
#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "market/data_market.h"
#include "obs/metrics.h"
#include "semstore/semantic_store.h"
#include "stats/estimator.h"

namespace payless::durability {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string WalPath() const { return (dir_ / "harvest.wal").string(); }

  fs::path dir_;
};

/// A harvest record with every field exercised (mixed-type rows, nulls, a
/// two-dimensional region).
HarvestRecord SampleRecord(uint64_t seq) {
  HarvestRecord r;
  r.seq = seq;
  r.table = "Weather";
  r.dataset = "WHW";
  r.epoch = 7;
  r.num_records = 4;
  r.transactions = 2;
  r.price = 0.4;
  r.region = Box({Interval(1, 4), Interval(10, 10)});
  r.rows = {
      Row{Value(int64_t{1}), Value(3.5), Value("US")},
      Row{Value(int64_t{2}), Value::Null(), Value(std::string())},
  };
  return r;
}

void ExpectEqualRecords(const HarvestRecord& got, const HarvestRecord& want) {
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.table, want.table);
  EXPECT_EQ(got.dataset, want.dataset);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.num_records, want.num_records);
  EXPECT_EQ(got.transactions, want.transactions);
  EXPECT_EQ(got.price, want.price);
  EXPECT_EQ(got.region, want.region);
  EXPECT_EQ(got.rows, want.rows);
}

TEST_F(WalTest, Crc32MatchesKnownVectors) {
  // The canonical CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(common::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(common::Crc32("", 0), 0u);
  EXPECT_NE(common::Crc32(std::string("abc")),
            common::Crc32(std::string("abd")));
}

TEST_F(WalTest, HarvestRecordRoundtrips) {
  const HarvestRecord want = SampleRecord(42);
  HarvestRecord got;
  ASSERT_TRUE(DecodeHarvest(EncodeHarvest(want), &got));
  ExpectEqualRecords(got, want);
}

TEST_F(WalTest, DecodeRejectsEveryTruncation) {
  const std::string payload = EncodeHarvest(SampleRecord(1));
  for (size_t len = 0; len < payload.size(); ++len) {
    HarvestRecord out;
    EXPECT_FALSE(DecodeHarvest(payload.substr(0, len), &out))
        << "decoded from " << len << " of " << payload.size() << " bytes";
  }
}

TEST_F(WalTest, AppendReadRoundtrip) {
  common::FramedAppendFile wal(WalPath());
  ASSERT_TRUE(wal.Open().ok());
  std::vector<std::string> payloads;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    payloads.push_back(EncodeHarvest(SampleRecord(seq)));
    ASSERT_TRUE(wal.Append(payloads.back()).ok());
  }
  wal.Close();

  const common::FrameReadResult read = common::ReadFramedFile(WalPath());
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes, read.total_bytes);
  ASSERT_EQ(read.payloads.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read.payloads[i], payloads[i]);
    HarvestRecord record;
    ASSERT_TRUE(DecodeHarvest(read.payloads[i], &record));
    EXPECT_EQ(record.seq, i + 1);
  }
}

TEST_F(WalTest, MissingFileIsAnEmptyLog) {
  const common::FrameReadResult read = common::ReadFramedFile(WalPath());
  EXPECT_TRUE(read.payloads.empty());
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.total_bytes, 0);
}

TEST_F(WalTest, ResetTruncatesAndStaysAppendable) {
  common::FramedAppendFile wal(WalPath());
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(EncodeHarvest(SampleRecord(1))).ok());
  ASSERT_GT(wal.size_bytes(), 0);
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.size_bytes(), 0);
  EXPECT_TRUE(common::ReadFramedFile(WalPath()).payloads.empty());
  ASSERT_TRUE(wal.Append(EncodeHarvest(SampleRecord(2))).ok());
  wal.Close();
  const common::FrameReadResult read = common::ReadFramedFile(WalPath());
  ASSERT_EQ(read.payloads.size(), 1u);
  HarvestRecord record;
  ASSERT_TRUE(DecodeHarvest(read.payloads[0], &record));
  EXPECT_EQ(record.seq, 2u);
}

TEST_F(WalTest, AppendTornLeavesThePrefixIntact) {
  common::FramedAppendFile wal(WalPath());
  ASSERT_TRUE(wal.Open().ok());
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(wal.Append(EncodeHarvest(SampleRecord(seq))).ok());
  }
  const int64_t prefix = wal.size_bytes();
  ASSERT_TRUE(wal.AppendTorn(EncodeHarvest(SampleRecord(4)), 11).ok());
  wal.Close();

  const common::FrameReadResult read = common::ReadFramedFile(WalPath());
  EXPECT_TRUE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes, prefix);
  EXPECT_EQ(read.total_bytes, prefix + 11);
  ASSERT_EQ(read.payloads.size(), 3u);
}

TEST_F(WalTest, CorruptMiddleRecordStopsReplayBeforeIt) {
  common::FramedAppendFile wal(WalPath());
  ASSERT_TRUE(wal.Open().ok());
  const std::string first = EncodeHarvest(SampleRecord(1));
  ASSERT_TRUE(wal.Append(first).ok());
  const int64_t first_end = wal.size_bytes();
  ASSERT_TRUE(wal.Append(EncodeHarvest(SampleRecord(2))).ok());
  ASSERT_TRUE(wal.Append(EncodeHarvest(SampleRecord(3))).ok());
  wal.Close();

  // Flip one payload byte of record 2: its CRC fails, and replay must stop
  // there — record 3, though bytewise intact, is unreachable behind it.
  std::string bytes = ReadFile(WalPath());
  bytes[static_cast<size_t>(first_end) + 8 + 5] ^= 0x01;
  WriteFile(WalPath(), bytes);

  const common::FrameReadResult read = common::ReadFramedFile(WalPath());
  EXPECT_TRUE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes, first_end);
  ASSERT_EQ(read.payloads.size(), 1u);
  EXPECT_EQ(read.payloads[0], first);
}

TEST_F(WalTest, TornTailAtEveryByteOffsetDropsExactlyTheFinalRecord) {
  // Satellite: write three records, then truncate a copy of the log at
  // EVERY byte offset of the final frame. Each truncation must yield the
  // first two records exactly — never a crash, never a third record, never
  // a duplicate.
  common::FramedAppendFile wal(WalPath());
  ASSERT_TRUE(wal.Open().ok());
  std::vector<std::string> payloads;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    payloads.push_back(EncodeHarvest(SampleRecord(seq)));
    ASSERT_TRUE(wal.Append(payloads.back()).ok());
  }
  wal.Close();
  const std::string bytes = ReadFile(WalPath());
  const size_t prefix = 2 * (8 + payloads[0].size());  // records 1..2
  ASSERT_LT(prefix, bytes.size());

  const std::string cut_path = (dir_ / "cut.wal").string();
  for (size_t cut = prefix; cut < bytes.size(); ++cut) {
    WriteFile(cut_path, bytes.substr(0, cut));
    const common::FrameReadResult read = common::ReadFramedFile(cut_path);
    ASSERT_EQ(read.payloads.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(read.payloads[0], payloads[0]) << "cut at byte " << cut;
    EXPECT_EQ(read.payloads[1], payloads[1]) << "cut at byte " << cut;
    EXPECT_EQ(read.torn_tail, cut > prefix) << "cut at byte " << cut;
    EXPECT_EQ(read.valid_bytes, static_cast<int64_t>(prefix))
        << "cut at byte " << cut;
    EXPECT_EQ(read.total_bytes, static_cast<int64_t>(cut))
        << "cut at byte " << cut;
  }
}

// ---- Full recovery over every torn-tail truncation.

/// Dataset WHW with one table: Weather(StationID bound over 1..16,
/// Temperature).
catalog::Catalog WeatherCatalog() {
  catalog::Catalog catalog;
  EXPECT_TRUE(
      catalog.RegisterDataset(catalog::DatasetDef{"WHW", 1.0, 5}).ok());
  catalog::TableDef weather;
  weather.name = "Weather";
  weather.dataset = "WHW";
  weather.columns = {
      catalog::ColumnDef::Bound("StationID", ValueType::kInt64,
                                catalog::AttrDomain::Numeric(1, 16)),
      catalog::ColumnDef::Output("Temperature", ValueType::kDouble)};
  weather.cardinality = 16;
  EXPECT_TRUE(catalog.RegisterTable(weather).ok());
  return catalog;
}

class RecoveryFixture {
 public:
  explicit RecoveryFixture(const std::string& dir)
      : catalog_(WeatherCatalog()), store_(catalog_), stats_(catalog_) {
    DurabilityOptions options;
    options.dir = dir;
    manager_ = std::make_unique<DurabilityManager>(
        options, &catalog_, &store_, &stats_, &metrics_,
        [] { return int64_t{0}; });
  }

  Status Recover() {
    return manager_->Recover([this](const catalog::TableDef& def,
                                    const Box& region, std::vector<Row> rows,
                                    int64_t num_records, int64_t epoch) {
      applied_rows_ += rows.size();
      applied_regions_.push_back(region);
      store_.Store(def, region, std::move(rows), epoch);
      stats_.Feedback(def.name, region, num_records);
    });
  }

  catalog::Catalog catalog_;
  semstore::SemanticStore store_;
  stats::StatsRegistry stats_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<DurabilityManager> manager_;
  size_t applied_rows_ = 0;
  std::vector<Box> applied_regions_;
};

/// One single-station harvest: region [station, station], one row.
HarvestRecord StationHarvest(uint64_t seq, int64_t station) {
  HarvestRecord r;
  r.seq = seq;
  r.table = "Weather";
  r.dataset = "WHW";
  r.epoch = 1;
  r.num_records = 1;
  r.transactions = 1;
  r.price = 0.2;
  r.region = Box({Interval::Point(station)});
  r.rows = {Row{Value(station), Value(static_cast<double>(station) * 1.5)}};
  return r;
}

TEST_F(WalTest, RecoveryAtEveryTornOffsetNeverDoubleApplies) {
  // Satellite, manager level: for every truncation offset inside the final
  // frame, full recovery must apply records 1..2 exactly once, adopt the
  // intact prefix as the live log, and keep accepting appends.
  common::FramedAppendFile wal(WalPath());
  ASSERT_TRUE(wal.Open().ok());
  size_t prefix = 0;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(
        wal.Append(EncodeHarvest(StationHarvest(seq, int64_t(seq)))).ok());
    if (seq == 2) prefix = static_cast<size_t>(wal.size_bytes());
  }
  wal.Close();
  const std::string bytes = ReadFile(WalPath());

  for (size_t cut = prefix; cut < bytes.size(); ++cut) {
    const fs::path trial_dir = dir_ / ("trial_" + std::to_string(cut));
    fs::create_directories(trial_dir);
    WriteFile((trial_dir / "harvest.wal").string(), bytes.substr(0, cut));

    RecoveryFixture fixture(trial_dir.string());
    ASSERT_TRUE(fixture.Recover().ok()) << "cut at byte " << cut;
    const RecoveryInfo& info = fixture.manager_->recovery();
    EXPECT_TRUE(info.recovered) << "cut at byte " << cut;
    EXPECT_FALSE(info.had_snapshot);
    // Exactly the two intact records, applied exactly once each.
    EXPECT_EQ(info.replayed_records, 2u) << "cut at byte " << cut;
    EXPECT_EQ(info.skipped_records, 0u);
    EXPECT_EQ(fixture.applied_rows_, 2u) << "cut at byte " << cut;
    EXPECT_EQ(fixture.store_.TotalStoredRows(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(info.wal_torn_tail, cut > prefix) << "cut at byte " << cut;
    EXPECT_EQ(info.wal_bytes, static_cast<int64_t>(prefix));
    // The torn bytes are gone from the re-adopted log: the next harvest
    // appends after the intact prefix and seq continues past the survivors.
    EXPECT_EQ(fs::file_size(trial_dir / "harvest.wal"), prefix)
        << "cut at byte " << cut;
    EXPECT_EQ(fixture.manager_->next_seq(), 3u);

    const catalog::TableDef* def = fixture.catalog_.FindTable("Weather");
    ASSERT_NE(def, nullptr);
    const HarvestRecord next = StationHarvest(0, 9);
    market::CallResult result;
    result.rows = next.rows;
    result.num_records = next.num_records;
    result.transactions = next.transactions;
    result.price = next.price;
    fixture.manager_->LogAndApply(
        *def, next.region, result, next.epoch,
        [&](const catalog::TableDef& d, const Box& region,
            std::vector<Row> rows, int64_t num_records, int64_t epoch) {
          fixture.store_.Store(d, region, std::move(rows), epoch);
          fixture.stats_.Feedback(d.name, region, num_records);
        });
    const common::FrameReadResult reread =
        common::ReadFramedFile((trial_dir / "harvest.wal").string());
    EXPECT_FALSE(reread.torn_tail) << "cut at byte " << cut;
    ASSERT_EQ(reread.payloads.size(), 3u) << "cut at byte " << cut;
    HarvestRecord appended;
    ASSERT_TRUE(DecodeHarvest(reread.payloads.back(), &appended));
    EXPECT_EQ(appended.seq, 3u);  // manager-assigned: max durable + 1
    fs::remove_all(trial_dir);
  }
}

// ---- Snapshot files.

/// The views, statistics and scalars every snapshot test writes.
SnapshotData SampleSnapshot() {
  SnapshotData data;
  data.last_seq = 17;
  data.current_week = 12;
  SnapshotData::TableViews views;
  views.table = "Weather";
  semstore::StoredView view;
  view.region = Box({Interval(1, 4)});  // RecoveryFixture's Weather
  view.rows = {Row{Value(int64_t{1}), Value(2.5)},
               Row{Value(int64_t{2}), Value::Null()}};
  view.epoch = 11;
  views.views.push_back(view);
  data.store_tables.push_back(views);
  data.stats_tables.emplace_back("Weather", std::string("\x01\x02\x00\x03", 4));
  return data;
}

void ExpectSampleSnapshot(const SnapshotData& got) {
  const SnapshotData want = SampleSnapshot();
  EXPECT_EQ(got.last_seq, want.last_seq);
  EXPECT_EQ(got.current_week, want.current_week);
  ASSERT_EQ(got.store_tables.size(), 1u);
  EXPECT_EQ(got.store_tables[0].table, "Weather");
  ASSERT_EQ(got.store_tables[0].views.size(), 1u);
  const semstore::StoredView& view = want.store_tables[0].views[0];
  EXPECT_EQ(got.store_tables[0].views[0].region, view.region);
  EXPECT_EQ(got.store_tables[0].views[0].rows, view.rows);
  EXPECT_EQ(got.store_tables[0].views[0].epoch, view.epoch);
  ASSERT_EQ(got.stats_tables.size(), 1u);
  EXPECT_EQ(got.stats_tables[0], want.stats_tables[0]);
}

TEST_F(WalTest, SnapshotRoundtripsEveryField) {
  const std::string path = (dir_ / "store.snap").string();
  ASSERT_TRUE(WriteSnapshotFile(path, SampleSnapshot()).ok());
  SnapshotData got;
  ASSERT_TRUE(ReadSnapshotFile(path, &got).ok());
  ExpectSampleSnapshot(got);
}

TEST_F(WalTest, FormatTwoSnapshotStillDecodes) {
  // Format 2, byte by byte: the version, last_seq, the plan epoch, the
  // week, the views, the statistics, then one cached plan with one bind
  // access bought at "west". Recovery keeps everything but the epoch and
  // the plan.
  const SnapshotData sample = SampleSnapshot();
  std::string body;
  common::BinWriter w(&body);
  w.U8(2);
  w.U64(sample.last_seq);
  w.U64(5);  // plan epoch
  w.I64(sample.current_week);
  w.U32(1);
  w.Str("Weather");
  w.U32(1);
  const semstore::StoredView& view = sample.store_tables[0].views[0];
  common::WriteBox(w, view.region);
  w.I64(view.epoch);
  w.U32(static_cast<uint32_t>(view.rows.size()));
  for (const Row& row : view.rows) common::WriteRow(w, row);
  w.U32(1);
  w.Str(sample.stats_tables[0].first);
  w.Str(sample.stats_tables[0].second);
  // One cached plan: its key, est_cost, est_result_rows and one bind
  // access (rel, kind, one edge, used_sqr, rows, bind values,
  // transactions, calls, buy site, base transactions, four SQR counters),
  // then five planning counters and the counterfactual (total, one
  // dataset, signature).
  w.U32(1);
  w.Str("key-1");
  w.I64(21);
  w.F64(34.5);
  w.U32(1);
  w.U64(1);
  w.U8(1);
  w.U32(1);
  for (uint64_t v : {0, 1, 1, 0}) w.U64(v);
  w.U8(1);
  w.F64(8.25);
  w.F64(4.0);
  w.I64(6);
  w.I64(4);
  w.Str("west");
  w.I64(6);
  for (int i = 0; i < 4; ++i) w.U64(3);
  for (int i = 0; i < 5; ++i) w.U64(9);
  w.I64(40);
  w.U32(1);
  w.Str("WHW");
  w.I64(40);
  w.Str("bind:Weather");

  std::string file = "PLSSNAP1";
  common::BinWriter header(&file);
  header.U32(common::Crc32(body));
  header.U64(body.size());
  file += body;
  const std::string path = (dir_ / "store.snap").string();
  WriteFile(path, file);

  SnapshotData got;
  ASSERT_TRUE(ReadSnapshotFile(path, &got).ok());
  ExpectSampleSnapshot(got);

  // The manager recovers it: the view is back, and the log continues
  // after the snapshot's last_seq.
  RecoveryFixture fixture(dir_.string());
  ASSERT_TRUE(fixture.Recover().ok());
  const RecoveryInfo& info = fixture.manager_->recovery();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.snapshot_seq, sample.last_seq);
  EXPECT_EQ(info.restored_week, sample.current_week);
  EXPECT_EQ(info.recovered_views, 1u);
  EXPECT_EQ(info.recovered_rows, view.rows.size());
  EXPECT_EQ(fixture.manager_->next_seq(), sample.last_seq + 1);
  EXPECT_FALSE(fixture.manager_->dead());
}

TEST_F(WalTest, SnapshotMissingIsNotFound) {
  SnapshotData out;
  EXPECT_EQ(ReadSnapshotFile((dir_ / "absent.snap").string(), &out).code(),
            Status::Code::kNotFound);
}

TEST_F(WalTest, SnapshotCorruptionIsDetected) {
  SnapshotData data;
  data.last_seq = 5;
  const std::string path = (dir_ / "store.snap").string();
  ASSERT_TRUE(WriteSnapshotFile(path, data).ok());

  // Flip one body byte: the CRC must catch it.
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 1] ^= 0x10;
  WriteFile(path, bytes);
  SnapshotData out;
  EXPECT_EQ(ReadSnapshotFile(path, &out).code(), Status::Code::kInternal);

  // A half-written file (the torn tmp a crash mid-snapshot leaves) too.
  WriteFile(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(ReadSnapshotFile(path, &out).code(), Status::Code::kInternal);

  WriteFile(path, "torn-snapshot");
  EXPECT_EQ(ReadSnapshotFile(path, &out).code(), Status::Code::kInternal);
}

}  // namespace
}  // namespace payless::durability
