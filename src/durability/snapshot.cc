#include "durability/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/binio.h"
#include "common/framing.h"

namespace payless::durability {

namespace {

constexpr char kMagic[8] = {'P', 'L', 'S', 'S', 'N', 'A', 'P', '1'};
// Version 3 keeps only purchased state. Version 2 also carried the epoch
// that keyed cached plans after last_seq, and the cached plans after the
// statistics; it still decodes, and both are dropped.
constexpr uint8_t kFormatVersion = 3;
constexpr uint8_t kPlanCarryingVersion = 2;

std::string EncodeBody(const SnapshotData& data) {
  std::string body;
  common::BinWriter w(&body);
  w.U8(kFormatVersion);
  w.U64(data.last_seq);
  w.I64(data.current_week);

  w.U32(static_cast<uint32_t>(data.store_tables.size()));
  for (const SnapshotData::TableViews& t : data.store_tables) {
    w.Str(t.table);
    w.U32(static_cast<uint32_t>(t.views.size()));
    for (const semstore::StoredView& v : t.views) {
      common::WriteBox(w, v.region);
      w.I64(v.epoch);
      w.U32(static_cast<uint32_t>(v.rows.size()));
      for (const Row& row : v.rows) common::WriteRow(w, row);
    }
  }

  w.U32(static_cast<uint32_t>(data.stats_tables.size()));
  for (const auto& [table, blob] : data.stats_tables) {
    w.Str(table);
    w.Str(blob);
  }
  return body;
}

bool DecodeBody(const std::string& body, SnapshotData* out) {
  common::BinReader r(body);
  uint8_t version = 0;
  if (!r.U8(&version) ||
      (version != kFormatVersion && version != kPlanCarryingVersion)) {
    return false;
  }
  const bool carries_plans = version == kPlanCarryingVersion;
  uint64_t plan_epoch = 0;
  uint32_t num_tables = 0;
  if (!r.U64(&out->last_seq) || (carries_plans && !r.U64(&plan_epoch)) ||
      !r.I64(&out->current_week) || !r.U32(&num_tables)) {
    return false;
  }
  out->store_tables.clear();
  for (uint32_t t = 0; t < num_tables; ++t) {
    SnapshotData::TableViews table;
    uint32_t num_views = 0;
    if (!r.Str(&table.table) || !r.U32(&num_views)) return false;
    table.views.reserve(num_views);
    for (uint32_t v = 0; v < num_views; ++v) {
      semstore::StoredView view;
      uint32_t num_rows = 0;
      if (!common::ReadBox(r, &view.region) || !r.I64(&view.epoch) ||
          !r.U32(&num_rows)) {
        return false;
      }
      view.rows.reserve(num_rows);
      for (uint32_t i = 0; i < num_rows; ++i) {
        Row row;
        if (!common::ReadRow(r, &row)) return false;
        view.rows.push_back(std::move(row));
      }
      table.views.push_back(std::move(view));
    }
    out->store_tables.push_back(std::move(table));
  }

  uint32_t num_stats = 0;
  if (!r.U32(&num_stats)) return false;
  out->stats_tables.clear();
  for (uint32_t i = 0; i < num_stats; ++i) {
    std::string table, blob;
    if (!r.Str(&table) || !r.Str(&blob)) return false;
    out->stats_tables.emplace_back(std::move(table), std::move(blob));
  }
  // A format-2 body ends in the cached plans, which the body CRC has
  // already validated: skip them unread, plans are re-derived.
  return r.ok() && (carries_plans || r.remaining() == 0);
}

}  // namespace

Status WriteSnapshotFile(const std::string& path, const SnapshotData& data) {
  const std::string body = EncodeBody(data);
  std::string file;
  file.append(kMagic, sizeof(kMagic));
  common::BinWriter w(&file);
  w.U32(common::Crc32(body));
  w.U64(body.size());
  file += body;
  return common::ReplaceFileDurably(path, file);
}

Status ReadSnapshotFile(const std::string& path, SnapshotData* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("no snapshot at '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = buffer.str();
  if (file.size() < sizeof(kMagic) + 12 ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Internal("snapshot '" + path + "': bad magic");
  }
  common::BinReader r(file.data() + sizeof(kMagic),
                      file.size() - sizeof(kMagic));
  uint32_t crc = 0;
  uint64_t body_len = 0;
  if (!r.U32(&crc) || !r.U64(&body_len) || r.remaining() != body_len) {
    return Status::Internal("snapshot '" + path + "': truncated header");
  }
  const std::string body = file.substr(sizeof(kMagic) + 12);
  if (common::Crc32(body) != crc) {
    return Status::Internal("snapshot '" + path + "': CRC mismatch");
  }
  if (!DecodeBody(body, out)) {
    return Status::Internal("snapshot '" + path + "': decode failed");
  }
  return Status::OK();
}

}  // namespace payless::durability
