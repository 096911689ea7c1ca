#include "durability/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/binio.h"
#include "common/framing.h"

namespace payless::durability {

namespace {

constexpr char kMagic[8] = {'P', 'L', 'S', 'S', 'N', 'A', 'P', '1'};
// Version 2 added each access's buy-site and base-catalog estimate, so a
// recovered federated plan buys where it was planned to.
constexpr uint8_t kFormatVersion = 2;

void WritePlan(common::BinWriter& w, const core::Plan& plan) {
  w.I64(plan.est_cost);
  w.F64(plan.est_result_rows);
  w.U32(static_cast<uint32_t>(plan.accesses.size()));
  for (const core::AccessSpec& a : plan.accesses) {
    w.U64(a.rel);
    w.U8(static_cast<uint8_t>(a.kind));
    w.U32(static_cast<uint32_t>(a.bind_edges.size()));
    for (const sql::JoinEdge& e : a.bind_edges) {
      w.U64(e.left.rel);
      w.U64(e.left.col);
      w.U64(e.right.rel);
      w.U64(e.right.col);
    }
    w.U8(a.used_sqr ? 1 : 0);
    w.F64(a.est_rows);
    w.F64(a.est_bind_values);
    w.I64(a.est_transactions);
    w.I64(a.est_calls);
    w.Str(a.buy_site);
    w.I64(a.est_base_transactions);
    w.U64(a.sqr_counters.elementary_boxes);
    w.U64(a.sqr_counters.enumerated_boxes);
    w.U64(a.sqr_counters.kept_boxes);
    w.U64(a.sqr_counters.cover_boxes);
  }
}

bool ReadPlan(common::BinReader& r, core::Plan* plan) {
  uint32_t num_accesses = 0;
  if (!r.I64(&plan->est_cost) || !r.F64(&plan->est_result_rows) ||
      !r.U32(&num_accesses)) {
    return false;
  }
  plan->accesses.clear();
  plan->accesses.reserve(num_accesses);
  for (uint32_t i = 0; i < num_accesses; ++i) {
    core::AccessSpec a;
    uint64_t rel = 0;
    uint8_t kind = 0;
    uint32_t num_edges = 0;
    if (!r.U64(&rel) || !r.U8(&kind) || !r.U32(&num_edges)) return false;
    a.rel = static_cast<size_t>(rel);
    a.kind = static_cast<core::AccessSpec::Kind>(kind);
    a.bind_edges.reserve(num_edges);
    for (uint32_t e = 0; e < num_edges; ++e) {
      sql::JoinEdge edge;
      uint64_t lr = 0, lc = 0, rr = 0, rc = 0;
      if (!r.U64(&lr) || !r.U64(&lc) || !r.U64(&rr) || !r.U64(&rc)) {
        return false;
      }
      edge.left = {static_cast<size_t>(lr), static_cast<size_t>(lc)};
      edge.right = {static_cast<size_t>(rr), static_cast<size_t>(rc)};
      a.bind_edges.push_back(edge);
    }
    uint8_t used_sqr = 0;
    uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    if (!r.U8(&used_sqr) || !r.F64(&a.est_rows) ||
        !r.F64(&a.est_bind_values) || !r.I64(&a.est_transactions) ||
        !r.I64(&a.est_calls) || !r.Str(&a.buy_site) ||
        !r.I64(&a.est_base_transactions) || !r.U64(&c0) || !r.U64(&c1) ||
        !r.U64(&c2) || !r.U64(&c3)) {
      return false;
    }
    a.used_sqr = used_sqr != 0;
    a.sqr_counters.elementary_boxes = static_cast<size_t>(c0);
    a.sqr_counters.enumerated_boxes = static_cast<size_t>(c1);
    a.sqr_counters.kept_boxes = static_cast<size_t>(c2);
    a.sqr_counters.cover_boxes = static_cast<size_t>(c3);
    plan->accesses.push_back(std::move(a));
  }
  return true;
}

void WriteCachedPlan(common::BinWriter& w, const core::CachedPlan& entry) {
  WritePlan(w, entry.plan);
  w.U64(entry.counters.evaluated_plans);
  w.U64(entry.counters.enumerated_bboxes);
  w.U64(entry.counters.kept_bboxes);
  w.U64(entry.counters.plan_cache_hits);
  w.U64(entry.counters.plan_cache_misses);
  w.I64(entry.cf_total);
  w.U32(static_cast<uint32_t>(entry.cf_by_dataset.size()));
  for (const auto& [dataset, transactions] : entry.cf_by_dataset) {
    w.Str(dataset);
    w.I64(transactions);
  }
  w.Str(entry.cf_signature);
}

bool ReadCachedPlan(common::BinReader& r, core::CachedPlan* entry) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0, c4 = 0;
  uint32_t num_datasets = 0;
  if (!ReadPlan(r, &entry->plan) || !r.U64(&c0) || !r.U64(&c1) ||
      !r.U64(&c2) || !r.U64(&c3) || !r.U64(&c4) || !r.I64(&entry->cf_total) ||
      !r.U32(&num_datasets)) {
    return false;
  }
  entry->counters.evaluated_plans = static_cast<size_t>(c0);
  entry->counters.enumerated_bboxes = static_cast<size_t>(c1);
  entry->counters.kept_bboxes = static_cast<size_t>(c2);
  entry->counters.plan_cache_hits = static_cast<size_t>(c3);
  entry->counters.plan_cache_misses = static_cast<size_t>(c4);
  for (uint32_t i = 0; i < num_datasets; ++i) {
    std::string dataset;
    int64_t transactions = 0;
    if (!r.Str(&dataset) || !r.I64(&transactions)) return false;
    entry->cf_by_dataset[std::move(dataset)] = transactions;
  }
  return r.Str(&entry->cf_signature);
}

std::string EncodeBody(const SnapshotData& data) {
  std::string body;
  common::BinWriter w(&body);
  w.U8(kFormatVersion);
  w.U64(data.last_seq);
  w.U64(data.drift_epoch);
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

  w.U32(static_cast<uint32_t>(data.plans.size()));
  for (const auto& [key, entry] : data.plans) {
    w.Str(key);
    WriteCachedPlan(w, entry);
  }
  return body;
}

bool DecodeBody(const std::string& body, SnapshotData* out) {
  common::BinReader r(body);
  uint8_t version = 0;
  if (!r.U8(&version) || version != kFormatVersion) return false;
  uint32_t num_tables = 0;
  if (!r.U64(&out->last_seq) || !r.U64(&out->drift_epoch) ||
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

  uint32_t num_plans = 0;
  if (!r.U32(&num_plans)) return false;
  out->plans.clear();
  for (uint32_t i = 0; i < num_plans; ++i) {
    std::string key;
    core::CachedPlan entry;
    if (!r.Str(&key) || !ReadCachedPlan(r, &entry)) return false;
    out->plans.emplace_back(std::move(key), std::move(entry));
  }
  return r.ok() && r.remaining() == 0;
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
