#include "semstore/semantic_store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <shared_mutex>
#include <sstream>
#include <unordered_set>

#include "common/snapshot.h"

namespace payless::semstore {

namespace {

/// RowPoint over precomputed constrainable columns `dims`.
std::optional<std::vector<int64_t>> PointOf(const catalog::TableDef& def,
                                            const std::vector<size_t>& dims,
                                            const Row& row) {
  std::vector<int64_t> point;
  point.reserve(dims.size());
  for (size_t col : dims) {
    const std::optional<int64_t> code = def.columns[col].domain.Encode(row[col]);
    if (!code.has_value()) return std::nullopt;
    point.push_back(*code);
  }
  return point;
}

/// If `a` and `b` differ on at most one dimension and overlap or touch
/// there, returns true and writes their exact union (the hull) to `merged`.
bool TryMergeBoxes(const Box& a, const Box& b, Box* merged) {
  size_t diff_dim = a.num_dims();
  for (size_t d = 0; d < a.num_dims(); ++d) {
    if (a.dim(d) == b.dim(d)) continue;
    if (diff_dim != a.num_dims()) return false;  // differ on two dims
    diff_dim = d;
  }
  if (diff_dim == a.num_dims()) {  // identical
    *merged = a;
    return true;
  }
  const Interval& x = a.dim(diff_dim);
  const Interval& y = b.dim(diff_dim);
  // Overlapping or adjacent intervals merge into their hull exactly.
  if (x.hi + 1 < y.lo || y.hi + 1 < x.lo) return false;
  *merged = a;
  merged->dim(diff_dim) =
      Interval(std::min(x.lo, y.lo), std::max(x.hi, y.hi));
  return true;
}

/// Hash of a lattice point, for the writer-side duplicate index.
uint64_t PointHash(const std::vector<int64_t>& point) {
  uint64_t hash = 0;
  for (const int64_t code : point) {
    hash = common::SplitMix64(hash ^ static_cast<uint64_t>(code));
  }
  return hash;
}

/// Rough retained size of one row: variant overhead plus string payloads.
int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = 0;
  for (const Value& value : row) {
    bytes += 16;
    if (value.is_string()) {
      bytes += static_cast<int64_t>(value.AsString().size());
    }
  }
  return bytes;
}

/// The cell of `table` in a cell map built from the catalog; nullptr for a
/// table outside it.
template <typename Cells>
auto* CellOf(Cells& cells, const std::string& table) {
  const auto it = cells.find(table);
  return it == cells.end() ? nullptr : &it->second;
}

/// Lattice size of the table's constrainable-attribute space, saturating
/// on overflow (astronomically large domains just read as fraction ~0).
int64_t DomainVolume(const catalog::TableDef& def) {
  long double volume = 1.0L;
  for (size_t col : def.ConstrainableColumns()) {
    volume *= static_cast<long double>(def.columns[col].domain.size());
  }
  constexpr long double kMax =
      static_cast<long double>(std::numeric_limits<int64_t>::max());
  if (volume >= kMax) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(volume);
}

}  // namespace

std::optional<std::vector<int64_t>> RowPoint(const catalog::TableDef& def,
                                             const Row& row) {
  return PointOf(def, def.ConstrainableColumns(), row);
}

SemanticStore::SemanticStore(const catalog::Catalog& catalog) {
  for (const std::string& name : catalog.TableNames()) {
    cells_.try_emplace(name);
  }
}

void SemanticStore::AddCoverage(std::vector<Box>* coverage, Box region) {
  std::vector<Box>& list = *coverage;
  for (const Box& box : list) {
    if (box.Contains(region)) return;
  }
  std::erase_if(list, [&](const Box& box) { return region.Contains(box); });
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    for (size_t i = 0; i < list.size(); ++i) {
      Box merged;
      if (TryMergeBoxes(region, list[i], &merged)) {
        region = std::move(merged);
        list.erase(list.begin() + static_cast<ptrdiff_t>(i));
        merged_any = true;
        break;
      }
    }
  }
  // Merging may have grown the region past boxes it now subsumes.
  std::erase_if(list, [&](const Box& box) { return region.Contains(box); });
  list.push_back(std::move(region));
}

void SemanticStore::Store(const catalog::TableDef& def, Box region,
                          const std::vector<Row>& rows, int64_t epoch) {
  if (region.empty()) return;
  TableCell* cell = CellOf(cells_, def.name);
  assert(cell != nullptr && "store write to a table outside the catalog");

  // Everything a harvest can compute alone happens before the lock: each
  // row's lattice point and its hash, and the retained bytes.
  const std::vector<size_t> dims = def.ConstrainableColumns();
  const size_t num_dims = dims.size();
  std::vector<std::optional<std::vector<int64_t>>> points;
  std::vector<uint64_t> hashes;
  points.reserve(rows.size());
  hashes.reserve(rows.size());
  int64_t bytes = 0;
  for (const Row& row : rows) {
    bytes += ApproxRowBytes(row);
    points.push_back(PointOf(def, dims, row));
    hashes.push_back(points.back().has_value() ? PointHash(*points.back())
                                               : 0);
  }

  std::unique_lock<std::shared_mutex> lock(cell->mutex);
  TableData& data = cell->data;
  AddCoverage(&data.coverage, region);
  if (data.domain_volume == 0) data.domain_volume = DomainVolume(def);
  data.approx_bytes += bytes;
  if (data.views.empty()) {
    data.min_epoch = epoch;
    data.max_epoch = epoch;
  } else {
    data.min_epoch = std::min(data.min_epoch, epoch);
    data.max_epoch = std::max(data.max_epoch, epoch);
  }
  if (data.postings.empty()) {
    data.postings.resize(num_dims);
    for (size_t d = 0; d < num_dims; ++d) {
      data.postings[d].posted =
          def.columns[dims[d]].domain.ToInterval().Width() > 1;
    }
  }
  View view;
  view.epoch = epoch;
  view.rows.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    std::optional<std::vector<int64_t>>& point = points[r];
    if (!point.has_value()) {  // outside domains: kept only for export
      view.rows.push_back(kUnpooled |
                          static_cast<uint32_t>(view.unpooled.size()));
      view.unpooled.push_back(row);
      continue;
    }
    // Identical rows share their point, so the point-hash index finds any
    // pooled copy; in-batch duplicates are indexed as they pool.
    uint32_t index = kUnpooled;
    const auto [first, last] = data.pooled_by_point.equal_range(hashes[r]);
    for (auto it = first; it != last && index == kUnpooled; ++it) {
      if (data.points[it->second] == *point && data.pool[it->second] == row) {
        index = it->second;
      }
    }
    if (index == kUnpooled) {
      // Pool indices only grow, so every posting list stays ascending.
      index = static_cast<uint32_t>(data.pool.size());
      data.pooled_by_point.emplace(hashes[r], index);
      data.pool.push_back(row);  // the row's one copy
      for (size_t d = 0; d < num_dims; ++d) {
        if (data.postings[d].posted) {
          data.postings[d].lists[(*point)[d]].push_back(index);
        }
      }
      data.points.push_back(std::move(*point));
    }
    view.rows.push_back(index);
  }
  view.region = std::move(region);
  data.views.push_back(std::move(view));
}

std::vector<StoredView> SemanticStore::ViewsOf(
    const std::string& table) const {
  const TableCell* cell = CellOf(cells_, table);
  if (cell == nullptr) return {};
  std::shared_lock<std::shared_mutex> lock(cell->mutex);
  const TableData& data = cell->data;
  std::vector<StoredView> out;
  out.reserve(data.views.size());
  for (const View& view : data.views) {
    StoredView exported{view.region, {}, view.epoch};
    exported.rows.reserve(view.rows.size());
    for (const uint32_t ref : view.rows) {
      exported.rows.push_back(data.ViewRow(view, ref));
    }
    out.push_back(std::move(exported));
  }
  return out;
}

std::vector<Box> SemanticStore::CoveredRegionsOf(const TableData& data,
                                                 int64_t min_epoch) {
  // Weak consistency (every view usable): serve the normalized coverage.
  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    return data.coverage;
  }
  std::vector<Box> out;
  out.reserve(data.views.size());
  for (const View& view : data.views) {
    if (view.epoch >= min_epoch) out.push_back(view.region);
  }
  return out;
}

bool SemanticStore::IsCoveredUnder(const TableData& data, const Box& region,
                                   int64_t min_epoch) {
  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    return IsCovered(region, data.coverage);
  }
  return IsCovered(region, CoveredRegionsOf(data, min_epoch));
}

std::vector<Box> SemanticStore::CoveredRegions(const std::string& table,
                                               int64_t min_epoch) const {
  const TableCell* cell = CellOf(cells_, table);
  if (cell == nullptr) return {};
  std::shared_lock<std::shared_mutex> lock(cell->mutex);
  return CoveredRegionsOf(cell->data, min_epoch);
}

void SemanticStore::CountProbe(const TableCell* cell, bool hit) const {
  probes_.fetch_add(1, std::memory_order_relaxed);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (cell != nullptr) {
    cell->probes.fetch_add(1, std::memory_order_relaxed);
    (hit ? cell->hits : cell->misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
  obs::Counter* metric = (hit ? hits_metric_ : misses_metric_)
                             .load(std::memory_order_relaxed);
  if (metric != nullptr) metric->Add(1);
}

bool SemanticStore::Covers(const catalog::TableDef& def, const Box& region,
                           int64_t min_epoch) const {
  if (region.empty()) {
    CountProbe(nullptr, /*hit=*/true);
    return true;
  }
  const TableCell* cell = CellOf(cells_, def.name);
  if (cell == nullptr) {
    CountProbe(nullptr, /*hit=*/false);
    return false;
  }
  bool covered = false;
  {
    std::shared_lock<std::shared_mutex> lock(cell->mutex);
    covered = IsCoveredUnder(cell->data, region, min_epoch);
  }
  CountProbe(cell, covered);
  return covered;
}

std::vector<Row> SemanticStore::RowsInRegion(const catalog::TableDef& def,
                                             const Box& region,
                                             int64_t min_epoch) const {
  const TableCell* cell =
      region.empty() ? nullptr : CellOf(cells_, def.name);
  std::vector<Row> out;
  if (cell != nullptr) {
    std::shared_lock<std::shared_mutex> lock(cell->mutex);
    out = RowsOf(cell->data, region, min_epoch);
  }
  CountProbe(cell, /*hit=*/!out.empty());
  return out;
}

std::vector<Row> SemanticStore::RowsOf(const TableData& data,
                                       const Box& region, int64_t min_epoch) {
  std::vector<Row> out;
  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    // Weak consistency: serve from the deduplicated pool. Use the postings
    // of the most selective narrow dimension when one exists — selectivity
    // is the ACTUAL candidate count on that dimension's postings, not the
    // interval width: a one-value categorical dimension ("Country = 'US'")
    // has width 1 but may post every pooled row, while a four-station slab
    // posts a handful.
    const auto list_of = [&](size_t d,
                             int64_t code) -> const std::vector<uint32_t>* {
      const auto it = data.postings[d].lists.find(code);
      return it == data.postings[d].lists.end() ? nullptr : &it->second;
    };
    size_t best_dim = region.num_dims();
    size_t best_candidates = std::numeric_limits<size_t>::max();
    for (size_t d = 0; d < region.num_dims() && d < data.postings.size();
         ++d) {
      if (!data.postings[d].posted) continue;  // single-point domain
      if (region.dim(d).Width() > 64) continue;  // too wide to enumerate
      size_t candidates = 0;
      for (int64_t code = region.dim(d).lo; code <= region.dim(d).hi;
           ++code) {
        if (const auto* list = list_of(d, code)) candidates += list->size();
      }
      if (candidates < best_candidates) {
        best_candidates = candidates;
        best_dim = d;
      }
    }
    if (best_dim < region.num_dims()) {
      out.reserve(best_candidates);
      for (int64_t code = region.dim(best_dim).lo;
           code <= region.dim(best_dim).hi; ++code) {
        const auto* list = list_of(best_dim, code);
        if (list == nullptr) continue;
        for (const uint32_t i : *list) {
          if (region.Contains(data.points[i])) out.push_back(data.pool[i]);
        }
      }
    } else {
      out.reserve(data.pool.size());
      for (size_t i = 0; i < data.pool.size(); ++i) {
        if (region.Contains(data.points[i])) out.push_back(data.pool[i]);
      }
    }
    return out;
  }

  // Epoch-filtered (X-week consistency) path: scan usable views newest-
  // first, deduplicating identical tuples — identical tuples share one
  // pool index, and unpooled rows have no point, so never qualify.
  std::vector<const View*> usable;
  usable.reserve(data.views.size());
  size_t candidate_rows = 0;
  for (const View& view : data.views) {
    if (view.epoch >= min_epoch && view.region.Overlaps(region)) {
      usable.push_back(&view);
      candidate_rows += view.rows.size();
    }
  }
  std::stable_sort(usable.begin(), usable.end(),
                   [](const View* a, const View* b) {
                     return a->epoch > b->epoch;
                   });
  std::unordered_set<uint32_t> seen;
  seen.reserve(candidate_rows);
  out.reserve(candidate_rows);
  for (const View* view : usable) {
    for (const uint32_t ref : view->rows) {
      if ((ref & kUnpooled) != 0) continue;
      if (!region.Contains(data.points[ref])) continue;
      if (seen.insert(ref).second) out.push_back(data.pool[ref]);
    }
  }
  return out;
}

size_t SemanticStore::NumViews(const std::string& table) const {
  const TableCell* cell = CellOf(cells_, table);
  if (cell == nullptr) return 0;
  std::shared_lock<std::shared_mutex> lock(cell->mutex);
  return cell->data.views.size();
}

size_t SemanticStore::TotalViews() const {
  size_t total = 0;
  for (const auto& [name, cell] : cells_) {
    std::shared_lock<std::shared_mutex> lock(cell.mutex);
    total += cell.data.views.size();
  }
  return total;
}

size_t SemanticStore::TotalStoredRows() const {
  size_t total = 0;
  for (const auto& [name, cell] : cells_) {
    std::shared_lock<std::shared_mutex> lock(cell.mutex);
    for (const View& view : cell.data.views) total += view.rows.size();
  }
  return total;
}

std::vector<std::string> SemanticStore::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, cell] : cells_) names.push_back(name);
  return names;
}

void SemanticStore::DropTable(const std::string& table) {
  TableCell* cell = CellOf(cells_, table);
  if (cell == nullptr) return;
  int64_t dropped = 0;
  {
    std::unique_lock<std::shared_mutex> lock(cell->mutex);
    dropped = static_cast<int64_t>(cell->data.views.size());
    cell->data = TableData();
  }
  if (dropped > 0) {
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
    obs::Counter* metric = evictions_metric_.load(std::memory_order_relaxed);
    if (metric != nullptr) metric->Add(dropped);
  }
}

void SemanticStore::BindMetrics(obs::Counter* hits, obs::Counter* misses,
                                obs::Counter* evictions) {
  hits_metric_.store(hits, std::memory_order_relaxed);
  misses_metric_.store(misses, std::memory_order_relaxed);
  evictions_metric_.store(evictions, std::memory_order_relaxed);
}

std::vector<StoreTableStats> SemanticStore::SnapshotStats() const {
  std::vector<StoreTableStats> out;
  for (const auto& [table, cell] : cells_) {
    StoreTableStats stats;
    stats.table = table;
    stats.probes = cell.probes.load(std::memory_order_relaxed);
    stats.hits = cell.hits.load(std::memory_order_relaxed);
    stats.misses = cell.misses.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(cell.mutex);
    const TableData& data = cell.data;
    stats.views = data.views.size();
    stats.coverage_boxes = data.coverage.size();
    stats.pooled_rows = data.pool.size();
    stats.approx_bytes = data.approx_bytes;
    stats.min_epoch = data.min_epoch;
    stats.max_epoch = data.max_epoch;
    if (data.domain_volume > 0) {
      double covered = 0.0;
      for (const Box& box : data.coverage) {
        covered += static_cast<double>(box.Volume());
      }
      stats.covered_fraction =
          std::min(1.0, covered / static_cast<double>(data.domain_volume));
    }
    out.push_back(std::move(stats));
  }
  return out;
}

std::string SemanticStore::StatsJson() const {
  const std::vector<StoreTableStats> tables = SnapshotStats();
  std::ostringstream os;
  os << "{\"probes\":" << TotalProbes()
     << ",\"hits\":" << TotalHits() << ",\"misses\":" << TotalMisses()
     << ",\"evictions\":" << TotalEvictions() << ",\"tables\":[";
  bool first = true;
  for (const StoreTableStats& t : tables) {
    if (!first) os << ",";
    first = false;
    os << "{\"table\":\"" << t.table << "\",\"views\":" << t.views
       << ",\"coverage_boxes\":" << t.coverage_boxes
       << ",\"pooled_rows\":" << t.pooled_rows
       << ",\"approx_bytes\":" << t.approx_bytes << ",\"covered_fraction\":";
    if (t.covered_fraction < 0) {
      os << "null";
    } else {
      os << t.covered_fraction;
    }
    os << ",\"probes\":" << t.probes << ",\"hits\":" << t.hits
       << ",\"misses\":" << t.misses << ",\"min_epoch\":" << t.min_epoch
       << ",\"max_epoch\":" << t.max_epoch << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace payless::semstore
