#include "durability/durability.h"

#include <unistd.h>

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/flight_recorder.h"

namespace payless::durability {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     const catalog::Catalog* catalog,
                                     semstore::SemanticStore* store,
                                     stats::StatsRegistry* stats,
                                     core::PlanCache* plan_cache,
                                     obs::MetricsRegistry* metrics)
    : options_(std::move(options)),
      catalog_(catalog),
      store_(store),
      stats_(stats),
      plan_cache_(plan_cache),
      wal_(options_.dir.empty() ? std::string()
                                : options_.dir + "/harvest.wal") {
  assert(metrics != nullptr);
  metric_.wal_appends = metrics->GetCounter("payless_wal_appends_total");
  metric_.wal_bytes = metrics->GetCounter("payless_wal_bytes_total");
  metric_.fsync_micros = metrics->GetHistogram(
      "payless_wal_fsync_micros",
      {10, 25, 50, 100, 250, 500, 1'000, 2'500, 5'000, 10'000, 25'000});
  metric_.wal_size = metrics->GetGauge("payless_wal_size_bytes");
  metric_.snapshots = metrics->GetCounter("payless_snapshots_total");
  metric_.snapshot_bytes = metrics->GetGauge("payless_snapshot_bytes");
  metric_.snapshot_age_records =
      metrics->GetGauge("payless_snapshot_age_records");
  metric_.recovery_micros = metrics->GetGauge("payless_recovery_micros");
  metric_.recovered_views = metrics->GetGauge("payless_recovered_views");
  metric_.recovered_rows = metrics->GetGauge("payless_recovered_rows");
  metric_.recovered_plans = metrics->GetGauge("payless_recovered_plans");
  metric_.replayed_records =
      metrics->GetCounter("payless_recovery_replayed_records");
}

void DurabilityManager::SetStateSuppliers(
    std::function<uint64_t()> drift_epoch,
    std::function<int64_t()> current_week) {
  drift_epoch_supplier_ = std::move(drift_epoch);
  current_week_supplier_ = std::move(current_week);
}

Status DurabilityManager::Recover(const HarvestApply& apply) {
  if (!enabled()) return Status::OK();
  const int64_t start = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);

  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("durability dir '" + options_.dir +
                            "': " + ec.message());
  }

  // ---- Snapshot: the compacted base image.
  SnapshotData snap;
  const Status snap_status = ReadSnapshotFile(snapshot_path(), &snap);
  if (snap_status.ok()) {
    recovery_.had_snapshot = true;
    recovery_.snapshot_seq = snap.last_seq;
    recovery_.restored_week = snap.current_week;
    recovery_.restored_drift_epoch = snap.drift_epoch;
    for (const SnapshotData::TableViews& table : snap.store_tables) {
      const catalog::TableDef* def = catalog_->FindTable(table.table);
      if (def == nullptr) continue;  // table left the catalog: drop it
      for (const semstore::StoredView& view : table.views) {
        recovery_.recovered_rows += view.rows.size();
        ++recovery_.recovered_views;
        store_->Store(*def, view.region, view.rows, view.epoch);
      }
    }
    for (const auto& [table, blob] : snap.stats_tables) {
      if (stats_->RestoreTable(table, blob)) {
        ++recovery_.recovered_stats_tables;
      }
    }
    for (const auto& [key, entry] : snap.plans) {
      plan_cache_->Insert(key, entry);
      ++recovery_.recovered_plans;
    }
  } else if (snap_status.code() != Status::Code::kNotFound) {
    return snap_status;  // an unreadable snapshot is a real error
  }

  // ---- Log tail: everything durable after the snapshot, re-applied
  // through the same listener body that absorbed it the first time.
  const WalReadResult wal = ReadWal(wal_path());
  recovery_.wal_torn_tail = wal.torn_tail;
  recovery_.wal_bytes = wal.valid_bytes;
  uint64_t max_seq = snap.last_seq;
  int64_t max_epoch = snap.current_week;
  for (const std::string& payload : wal.payloads) {
    HarvestRecord record;
    if (!DecodeHarvest(payload, &record)) {
      // A CRC-intact frame that fails to decode is treated like a torn
      // tail: stop replaying, re-adopt only the prefix before it.
      recovery_.wal_torn_tail = true;
      break;
    }
    if (record.seq > max_seq) max_seq = record.seq;
    if (record.seq <= snap.last_seq) {
      // Crash landed between the snapshot rename and the log reset: this
      // record is already folded into the snapshot.
      ++recovery_.skipped_records;
      continue;
    }
    const catalog::TableDef* def = catalog_->FindTable(record.table);
    if (def == nullptr) continue;
    if (record.epoch > max_epoch) max_epoch = record.epoch;
    apply(*def, record.region, record.rows, record.num_records,
          record.epoch);
    ++recovery_.replayed_records;
    ++records_since_snapshot_;
  }
  recovery_.restored_week = max_epoch;
  next_seq_ = max_seq + 1;
  last_snapshot_seq_ = snap.last_seq;
  recovery_.recovered =
      recovery_.had_snapshot || recovery_.replayed_records > 0;

  // Re-adopt only the intact prefix: appending after torn bytes would bury
  // every future record behind an unreadable frame.
  if (wal.valid_bytes < wal.total_bytes) {
    if (::truncate(wal_path().c_str(), wal.valid_bytes) != 0) {
      return Status::Internal("wal truncate-to-valid '" + wal_path() +
                              "' failed");
    }
  }
  PAYLESS_RETURN_IF_ERROR(wal_.Open());

  recovery_.recovery_micros = NowMicros() - start;
  metric_.recovery_micros->Set(recovery_.recovery_micros);
  metric_.recovered_views->Set(
      static_cast<int64_t>(recovery_.recovered_views));
  metric_.recovered_rows->Set(static_cast<int64_t>(recovery_.recovered_rows));
  metric_.recovered_plans->Set(
      static_cast<int64_t>(recovery_.recovered_plans));
  metric_.replayed_records->Add(
      static_cast<int64_t>(recovery_.replayed_records));
  metric_.wal_size->Set(wal_.size_bytes());
  metric_.snapshot_age_records->Set(
      static_cast<int64_t>(records_since_snapshot_));
  return Status::OK();
}

bool DurabilityManager::MaybeCrash(market::CrashPoint point) {
  if (options_.crash_injector == nullptr) return false;
  const std::optional<market::CrashPlan> plan =
      options_.crash_injector->CrashAt(point);
  if (!plan.has_value()) return false;
  if (plan->hard) {
    // Last words before the kill: the armed flight recorder (if any) dumps
    // its ring with async-signal-safe writes — the only telemetry that
    // survives a hard crash.
    obs::FlightRecorder::DumpArmedRecorder();
    std::_Exit(42);  // the real kill: no destructors, no flush
  }
  dead_.store(true, std::memory_order_release);
  return true;
}

void DurabilityManager::LogAndApply(const catalog::TableDef& def,
                                    const Box& region,
                                    const market::CallResult& result,
                                    int64_t epoch,
                                    const HarvestApply& apply) {
  if (!enabled() || dead()) {
    // Disabled: plain pass-through. Dead: the simulated kill already froze
    // the disk; the in-memory instance keeps serving (tests discard it).
    apply(def, region, result.rows, result.num_records, epoch);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);

  if (MaybeCrash(market::CrashPoint::kBeforeHarvestLog)) {
    // Billed but never durable: the one harvest a restart legitimately
    // re-buys.
    apply(def, region, result.rows, result.num_records, epoch);
    return;
  }

  HarvestRecord record;
  record.seq = next_seq_;
  record.table = def.name;
  record.dataset = def.dataset;
  record.epoch = epoch;
  record.num_records = result.num_records;
  record.transactions = result.transactions;
  record.price = result.price;
  record.region = region;
  record.rows = result.rows;
  const std::string payload = EncodeHarvest(record);

  if (options_.crash_injector != nullptr) {
    // Mid-append death is handled inline (not via MaybeCrash) because the
    // torn frame must reach the disk BEFORE a hard plan kills the process —
    // that partial frame is the whole point of the crash.
    const std::optional<market::CrashPlan> mid =
        options_.crash_injector->CrashAt(market::CrashPoint::kMidHarvestLog);
    if (mid.has_value()) {
      (void)wal_.AppendTorn(payload, mid->torn_bytes);
      if (mid->hard) {
        obs::FlightRecorder::DumpArmedRecorder();
        std::_Exit(42);
      }
      dead_.store(true, std::memory_order_release);
      apply(def, region, result.rows, result.num_records, epoch);
      return;
    }
  }

  const int64_t append_start = NowMicros();
  const Status appended =
      wal_.Append(payload, options_.fsync == FsyncPolicy::kEveryAppend);
  assert(appended.ok());
  (void)appended;
  metric_.fsync_micros->Observe(NowMicros() - append_start);
  metric_.wal_appends->Add(1);
  metric_.wal_bytes->Add(static_cast<int64_t>(payload.size()) + 8);
  metric_.wal_size->Set(wal_.size_bytes());
  ++next_seq_;
  ++records_since_snapshot_;
  metric_.snapshot_age_records->Set(
      static_cast<int64_t>(records_since_snapshot_));

  const bool died_after_log =
      MaybeCrash(market::CrashPoint::kAfterHarvestLog);

  apply(def, region, result.rows, result.num_records, epoch);
  if (died_after_log) return;

  if (options_.snapshot_every_records > 0 &&
      records_since_snapshot_ >= options_.snapshot_every_records) {
    const Status snapped = SnapshotLocked();
    assert(snapped.ok());
    (void)snapped;
  }
}

Status DurabilityManager::SnapshotNow() {
  if (!enabled() || dead()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  return SnapshotLocked();
}

Status DurabilityManager::SnapshotLocked() {
  SnapshotData data;
  data.last_seq = next_seq_ - 1;
  data.drift_epoch =
      drift_epoch_supplier_ != nullptr ? drift_epoch_supplier_() : 0;
  data.current_week =
      current_week_supplier_ != nullptr ? current_week_supplier_() : 0;
  for (const std::string& table : store_->TableNames()) {
    SnapshotData::TableViews views;
    views.table = table;
    views.views = store_->ViewsOf(table);
    if (!views.views.empty()) data.store_tables.push_back(std::move(views));
  }
  for (const std::string& table : stats_->TableNames()) {
    std::string blob;
    if (stats_->SaveTable(table, &blob)) {
      data.stats_tables.emplace_back(table, std::move(blob));
    }
  }
  for (const auto& [key, entry] : plan_cache_->Entries()) {
    data.plans.emplace_back(key, *entry);
  }

  if (MaybeCrash(market::CrashPoint::kMidSnapshot)) {
    // Death mid-write: a garbage tmp file, the real snapshot untouched.
    std::ofstream partial(snapshot_path() + ".tmp",
                          std::ios::binary | std::ios::trunc);
    partial << "torn-snapshot";
    return Status::OK();
  }

  PAYLESS_RETURN_IF_ERROR(WriteSnapshotFile(snapshot_path(), data));
  metric_.snapshots->Add(1);
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(snapshot_path(), ec);
  if (!ec) metric_.snapshot_bytes->Set(static_cast<int64_t>(size));

  if (MaybeCrash(market::CrashPoint::kAfterSnapshotBeforeReset)) {
    // Snapshot committed, log not yet reset: the seq filter makes the
    // overlap harmless at the next recovery.
    return Status::OK();
  }

  PAYLESS_RETURN_IF_ERROR(wal_.Reset());
  last_snapshot_seq_ = data.last_seq;
  records_since_snapshot_ = 0;
  metric_.wal_size->Set(wal_.size_bytes());
  metric_.snapshot_age_records->Set(0);
  return Status::OK();
}

uint64_t DurabilityManager::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

int64_t DurabilityManager::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_.size_bytes();
}

std::string DurabilityManager::StatsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"enabled\":" << (enabled() ? "true" : "false")
      << ",\"dead\":" << (dead() ? "true" : "false")
      << ",\"wal_bytes\":" << wal_.size_bytes()
      << ",\"records_since_snapshot\":" << records_since_snapshot_
      << ",\"next_seq\":" << next_seq_
      << ",\"snapshot_seq\":" << last_snapshot_seq_ << ",\"recovery\":{"
      << "\"recovered\":" << (recovery_.recovered ? "true" : "false")
      << ",\"had_snapshot\":" << (recovery_.had_snapshot ? "true" : "false")
      << ",\"snapshot_seq\":" << recovery_.snapshot_seq
      << ",\"replayed_records\":" << recovery_.replayed_records
      << ",\"skipped_records\":" << recovery_.skipped_records
      << ",\"recovered_views\":" << recovery_.recovered_views
      << ",\"recovered_rows\":" << recovery_.recovered_rows
      << ",\"recovered_plans\":" << recovery_.recovered_plans
      << ",\"recovered_stats_tables\":" << recovery_.recovered_stats_tables
      << ",\"wal_torn_tail\":" << (recovery_.wal_torn_tail ? "true" : "false")
      << ",\"wal_bytes\":" << recovery_.wal_bytes
      << ",\"recovery_micros\":" << recovery_.recovery_micros
      << ",\"restored_week\":" << recovery_.restored_week
      << ",\"restored_drift_epoch\":" << recovery_.restored_drift_epoch
      << "}}";
  return out.str();
}

}  // namespace payless::durability
