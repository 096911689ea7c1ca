#include "durability/durability.h"

#include <unistd.h>

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

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
                                     obs::MetricsRegistry* metrics,
                                     std::function<int64_t()> current_week)
    : options_(std::move(options)),
      catalog_(catalog),
      store_(store),
      stats_(stats),
      current_week_(std::move(current_week)),
      wal_(options_.dir.empty() ? std::string()
                                : options_.dir + "/harvest.wal"),
      snapshot_due_at_(options_.snapshot_every_records) {
  assert(metrics != nullptr);
  metric_.wal_appends = metrics->GetCounter("payless_wal_appends_total");
  metric_.append_micros =
      metrics->GetLatencyHistogram("payless_wal_append_micros");
  metric_.snapshots = metrics->GetCounter("payless_snapshots_total");
  metric_.replayed_records =
      metrics->GetCounter("payless_recovery_replayed_records");
}

Status DurabilityManager::Recover(const HarvestApply& apply) {
  if (!enabled()) return Status::OK();
  const int64_t start = NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  const Status recovered = RecoverLocked(apply);
  if (!recovered.ok()) {
    // Appending behind an unread log, or snapshotting over an unreadable
    // snapshot, would cut state a later recovery could still read.
    NoteError(recovered);
    dead_.store(true, std::memory_order_release);
  }
  recovery_.recovery_micros = NowMicros() - start;
  metric_.replayed_records->Add(
      static_cast<int64_t>(recovery_.replayed_records));
  return recovered;
}

Status DurabilityManager::RecoverLocked(const HarvestApply& apply) {
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
  } else if (snap_status.code() != Status::Code::kNotFound) {
    return snap_status;  // an unreadable snapshot is a real error
  }

  // ---- Log tail: everything durable after the snapshot, re-applied
  // through the same listener body that absorbed it the first time.
  const common::FrameReadResult wal = common::ReadFramedFile(wal_path());
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
  return wal_.Open();
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
    // Disabled: plain pass-through. Dead: a simulated kill or a disk error
    // froze the disk; the in-memory instance keeps serving.
    apply(def, region, result.rows, result.num_records, epoch);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);

  // dead() again under the lock: a harvest that waited here while another's
  // append failed must not land behind that record.
  if (dead() || MaybeCrash(market::CrashPoint::kBeforeHarvestLog)) {
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
  const Status appended = wal_.Append(payload);
  if (!appended.ok()) {
    // No later record may land behind a missing or partly written one:
    // freeze the disk. The harvest was billed and delivered, so it is
    // still served.
    NoteError(appended);
    dead_.store(true, std::memory_order_release);
    apply(def, region, result.rows, result.num_records, epoch);
    return;
  }
  metric_.append_micros->Record(NowMicros() - append_start);
  metric_.wal_appends->Add(1);
  ++next_seq_;
  ++records_since_snapshot_;

  const bool died_after_log =
      MaybeCrash(market::CrashPoint::kAfterHarvestLog);

  apply(def, region, result.rows, result.num_records, epoch);
  if (died_after_log) return;

  if (options_.snapshot_every_records > 0 &&
      records_since_snapshot_ >= snapshot_due_at_) {
    const Status snapped = SnapshotLocked();
    if (!snapped.ok()) {
      // The log stays authoritative; retry a full interval later instead
      // of serializing the whole store again on every harvest.
      snapshot_due_at_ =
          records_since_snapshot_ + options_.snapshot_every_records;
      NoteError(snapped);
    }
  }
}

Status DurabilityManager::SnapshotNow() {
  if (!enabled() || dead()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  const Status snapped = SnapshotLocked();
  NoteError(snapped);
  return snapped;
}

Status DurabilityManager::SnapshotLocked() {
  SnapshotData data;
  data.last_seq = next_seq_ - 1;
  data.current_week = current_week_();
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

  if (MaybeCrash(market::CrashPoint::kMidSnapshot)) {
    // Death mid-write: a garbage tmp file, the real snapshot untouched.
    std::ofstream partial(snapshot_path() + ".tmp",
                          std::ios::binary | std::ios::trunc);
    partial << "torn-snapshot";
    return Status::OK();
  }

  PAYLESS_RETURN_IF_ERROR(WriteSnapshotFile(snapshot_path(), data));
  metric_.snapshots->Add(1);

  if (MaybeCrash(market::CrashPoint::kAfterSnapshotBeforeReset)) {
    // Snapshot committed, log not yet reset: the seq filter makes the
    // overlap harmless at the next recovery.
    return Status::OK();
  }

  PAYLESS_RETURN_IF_ERROR(wal_.Reset());
  last_snapshot_seq_ = data.last_seq;
  records_since_snapshot_ = 0;
  snapshot_due_at_ = options_.snapshot_every_records;
  return Status::OK();
}

void DurabilityManager::NoteError(const Status& status) {
  if (error_.ok()) error_ = status;
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
  out << "{\"error\":\"";
  if (!error_.ok()) obs::AppendJsonEscaped(out, error_.ToString());
  out << "\",\"enabled\":" << (enabled() ? "true" : "false")
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
      << ",\"recovered_stats_tables\":" << recovery_.recovered_stats_tables
      << ",\"wal_torn_tail\":" << (recovery_.wal_torn_tail ? "true" : "false")
      << ",\"wal_bytes\":" << recovery_.wal_bytes
      << ",\"recovery_micros\":" << recovery_.recovery_micros
      << ",\"restored_week\":" << recovery_.restored_week
      << "}}";
  return out.str();
}

}  // namespace payless::durability
