// Durability manager: crash-consistent persistence for everything PayLess
// paid for — semantic-store views and feedback-histogram state — so a
// process death never forfeits purchased data. Plans are derived state and
// are not persisted.
//
// Write path. The manager sits at the single billing point (the market-
// connector listener): every harvest is assigned a sequence number,
// framed into the write-ahead log and fsynced, applied in memory through
// the owner's listener body, and periodically compacted into a snapshot
// that atomically replaces its predecessor and resets the log. One fsync
// rule: a harvest is on stable storage before it is applied, and a
// snapshot (file and rename) is on stable storage before the log it
// replaces is cut.
// The whole harvest pipeline is serialized under one mutex — a deliberate
// trade: reads (the query hot path) never take it, only the store's shared
// table locks and the statistics' snapshots, while the write side, already
// serialized per table and bounded by market-call latency, gains a total
// order that makes the log a faithful replay script and leaves no window
// where a snapshot could double- or half-count an in-flight harvest.
//
// Recovery. Construction-time Recover() loads the snapshot (views replayed
// into the store, estimator blobs into the statistics registry), then
// replays every intact WAL record with seq > snapshot.last_seq through the
// same listener body. Torn log tails are dropped, never applied; a crash
// between the snapshot rename and the log reset is handled by that seq
// filter. The recovery metric is monetary: a recovered run re-buys exactly
// the harvests that were billed but not yet durable (crash before/mid
// append) and nothing else.
//
// Failure rule. A failed recovery or log append freezes the disk: the
// first error is kept (StatsJson shows it), nothing further is written,
// and the instance keeps serving from memory — a billed harvest is still
// applied. A failed snapshot only records its error: the log stays
// authoritative and keeps taking appends.
//
// Crash injection. At five pipeline points the manager consults the
// FaultInjector for an armed CrashPlan. A hard plan _Exit()s the process
// (the kill/restart harness); a soft plan freezes the on-disk state
// exactly as the kill would have left it and stops persisting, so a test
// can recover a twin instance from the files while the "dead" instance is
// discarded.
#ifndef PAYLESS_DURABILITY_DURABILITY_H_
#define PAYLESS_DURABILITY_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "market/data_market.h"
#include "market/fault_injector.h"
#include "obs/metrics.h"
#include "semstore/semantic_store.h"
#include "stats/estimator.h"

namespace payless::durability {

struct DurabilityOptions {
  /// Directory holding harvest.wal + store.snap. Empty = durability off
  /// (PayLess then behaves exactly as before this subsystem existed).
  std::string dir;
  /// Compact a snapshot after this many logged harvests (0 = only explicit
  /// SnapshotNow calls).
  size_t snapshot_every_records = 512;
  /// Crash-point oracle; nullptr = no crash injection.
  market::FaultInjector* crash_injector = nullptr;
};

/// What recovery found and rebuilt, surfaced on /store.
struct RecoveryInfo {
  bool recovered = false;     // any state restored (snapshot or replay)
  bool had_snapshot = false;
  uint64_t snapshot_seq = 0;  // last_seq folded into the loaded snapshot
  uint64_t replayed_records = 0;  // WAL records applied after the snapshot
  uint64_t skipped_records = 0;   // WAL records the seq filter dropped
  uint64_t recovered_views = 0;
  uint64_t recovered_rows = 0;
  uint64_t recovered_stats_tables = 0;
  bool wal_torn_tail = false;
  int64_t wal_bytes = 0;  // intact prefix re-adopted as the live log
  int64_t recovery_micros = 0;
  int64_t restored_week = 0;
};

class DurabilityManager {
 public:
  /// Replay/apply sink: the owner's listener body (store + feedback +
  /// accuracy tracking) — one code path for live harvests and recovery.
  using HarvestApply = std::function<void(
      const catalog::TableDef& def, const Box& region,
      const std::vector<Row>& rows, int64_t num_records, int64_t epoch)>;

  /// `current_week` supplies the owner's store week for each snapshot.
  DurabilityManager(DurabilityOptions options, const catalog::Catalog* catalog,
                    semstore::SemanticStore* store,
                    stats::StatsRegistry* stats, obs::MetricsRegistry* metrics,
                    std::function<int64_t()> current_week);

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Loads the snapshot, replays the log tail through `apply`, re-adopts
  /// the intact log prefix for appending. Call once, before serving. A
  /// failure freezes the disk (see the failure rule) and is returned.
  Status Recover(const HarvestApply& apply);

  /// The live harvest path: seq + log append (+fsync) + in-memory apply +
  /// periodic snapshot, serialized under the manager mutex. After a
  /// simulated (soft) crash or a disk error the apply still runs — the
  /// instance keeps serving from memory — but nothing further reaches the
  /// disk.
  void LogAndApply(const catalog::TableDef& def, const Box& region,
                   const market::CallResult& result, int64_t epoch,
                   const HarvestApply& apply);

  /// Forces a compaction now (tests; an operator endpoint could too).
  Status SnapshotNow();

  const RecoveryInfo& recovery() const { return recovery_; }
  bool enabled() const { return !options_.dir.empty(); }
  /// True after a soft (simulated) crash or a failed recovery or append:
  /// the on-disk state is frozen.
  bool dead() const { return dead_.load(std::memory_order_acquire); }
  uint64_t next_seq() const;
  int64_t wal_bytes() const;

  std::string wal_path() const { return options_.dir + "/harvest.wal"; }
  std::string snapshot_path() const { return options_.dir + "/store.snap"; }

  /// {"error":...,"enabled":...,"wal_bytes":...,"recovery":{...}} —
  /// spliced into the /store introspection document. "error" is the first
  /// disk error, empty while there is none.
  std::string StatsJson() const;

 private:
  /// Fires `point` against the armed crash plan; returns true when the
  /// caller must stop persisting (soft death — already marked). A hard
  /// plan never returns. kMidHarvestLog is handled inline in LogAndApply
  /// instead (its torn frame must be written before a hard exit).
  bool MaybeCrash(market::CrashPoint point);

  Status RecoverLocked(const HarvestApply& apply);
  Status SnapshotLocked();
  /// Keeps the first disk error for StatsJson; an OK status is ignored.
  void NoteError(const Status& status);

  DurabilityOptions options_;
  const catalog::Catalog* catalog_;
  semstore::SemanticStore* store_;
  stats::StatsRegistry* stats_;
  std::function<int64_t()> current_week_;

  mutable std::mutex mutex_;
  common::FramedAppendFile wal_;
  uint64_t next_seq_ = 1;
  uint64_t last_snapshot_seq_ = 0;
  /// Records since the last good snapshot (what /store reports).
  size_t records_since_snapshot_ = 0;
  /// records_since_snapshot_ at which the next automatic snapshot runs:
  /// snapshot_every_records after a good one, that many more after a
  /// failed one.
  size_t snapshot_due_at_ = 0;
  std::atomic<bool> dead_{false};
  Status error_;
  RecoveryInfo recovery_;

  /// Registry handles. Counters and histograms only: several durable
  /// clients may share one registry, so per-client levels (log size,
  /// snapshot age, what one recovery rebuilt) live on /store instead.
  struct Metrics {
    /// Successful appends only, like their timings.
    obs::Counter* wal_appends = nullptr;
    /// Every successful append, its fsync included.
    obs::LatencyHistogram* append_micros = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Counter* replayed_records = nullptr;
  } metric_;
};

}  // namespace payless::durability

#endif  // PAYLESS_DURABILITY_DURABILITY_H_
