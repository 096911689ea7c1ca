// Compacted snapshots of the durable state: what was paid for — the
// semantic store's views and the per-table estimator states — plus the last
// absorbed WAL sequence and the store week. Plans are not persisted: a
// restarted client re-derives each template from the recovered store and
// statistics on its first run.
//
// A snapshot bounds recovery work — log records with seq <= last_seq are
// already folded in and are skipped at replay — and bounds log growth: the
// manager resets the WAL after a successful snapshot. Files are written
// crash-atomically and durably (common::ReplaceFileDurably: tmp + fsync +
// rename + directory fsync), so a reader only ever sees the previous
// complete snapshot or the new complete snapshot, never a torn one, and
// the log is cut only after the new snapshot is on stable storage; a crash
// BETWEEN the rename and the log reset is safe because the seq filter
// drops the now-redundant log prefix at replay.
#ifndef PAYLESS_DURABILITY_SNAPSHOT_H_
#define PAYLESS_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "semstore/semantic_store.h"

namespace payless::durability {

/// In-memory image of one snapshot file.
struct SnapshotData {
  uint64_t last_seq = 0;     // highest WAL seq folded into this snapshot
  int64_t current_week = 0;  // store clock at snapshot time

  struct TableViews {
    std::string table;
    std::vector<semstore::StoredView> views;
  };
  std::vector<TableViews> store_tables;

  /// table -> serialized estimator state (stats::SaveEstimator blobs).
  std::vector<std::pair<std::string, std::string>> stats_tables;
};

/// Serializes `data` (format 3) and writes it crash-atomically and durably
/// to `path`.
Status WriteSnapshotFile(const std::string& path, const SnapshotData& data);

/// Reads and validates the snapshot at `path`: format 3, or format 2,
/// whose plan epoch and cached plans are dropped. NotFound when the file
/// does not exist (a cold start); Internal on magic/CRC/decode failure.
Status ReadSnapshotFile(const std::string& path, SnapshotData* out);

}  // namespace payless::durability

#endif  // PAYLESS_DURABILITY_SNAPSHOT_H_
