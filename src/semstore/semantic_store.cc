#include "semstore/semantic_store.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>
#include <unordered_set>

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

const SemanticStore::PostingList* SemanticStore::PostingDim::Find(
    int64_t code) const {
  if (root == nullptr || code < lo) return nullptr;
  const uint64_t offset =
      static_cast<uint64_t>(code) - static_cast<uint64_t>(lo);
  const int span_bits = levels * kPostingBits;
  if (span_bits < 64 && (offset >> span_bits) != 0) return nullptr;
  const PostingNode* node = root.get();
  for (int level = levels - 1; level > 0; --level) {
    node = node->children[(offset >> (level * kPostingBits)) &
                          (kPostingFanout - 1)]
               .get();
    if (node == nullptr) return nullptr;
  }
  return node->lists[offset & (kPostingFanout - 1)].get();
}

std::shared_ptr<const SemanticStore::PostingNode> SemanticStore::WithPostings(
    const PostingNode* node, int level, const PostingDim& dim,
    FreshPostings::const_iterator first, FreshPostings::const_iterator last) {
  auto copy = node != nullptr ? std::make_shared<PostingNode>(*node)
                              : std::make_shared<PostingNode>();
  const auto slot_of = [&](const FreshPosting& posting) {
    const uint64_t offset =
        static_cast<uint64_t>(posting.first) - static_cast<uint64_t>(dim.lo);
    return (offset >> (level * kPostingBits)) & (kPostingFanout - 1);
  };
  // Postings arrive sorted by code, so each slot's share is one contiguous
  // run: a child subtree below the bottom level, one code's list at it.
  std::vector<std::shared_ptr<const PostingNode>>& children = copy->children;
  std::vector<std::shared_ptr<const PostingList>>& lists = copy->lists;
  if (level > 0) {
    children.resize(kPostingFanout);
  } else {
    lists.resize(kPostingFanout);
  }
  while (first != last) {
    const uint64_t slot = slot_of(*first);
    auto run_end = first;
    while (run_end != last && slot_of(*run_end) == slot) ++run_end;
    if (level > 0) {
      children[slot] =
          WithPostings(children[slot].get(), level - 1, dim, first, run_end);
      first = run_end;
      continue;
    }
    auto list = lists[slot] != nullptr
                    ? std::make_shared<PostingList>(*lists[slot])
                    : std::make_shared<PostingList>();
    // The open tail chunk may be shared with older snapshots: append to a
    // private copy of it. Full chunks stay shared untouched.
    std::shared_ptr<PostingChunk> open;
    if (!list->chunks.empty() && list->chunks.back()->size() < kPostingChunk) {
      open = std::make_shared<PostingChunk>(*list->chunks.back());
      list->chunks.back() = open;
    }
    for (; first != run_end; ++first) {
      if (open == nullptr || open->size() >= kPostingChunk) {
        open = std::make_shared<PostingChunk>();
        list->chunks.push_back(open);
      }
      open->push_back(first->second);
      ++list->size;
    }
    lists[slot] = std::move(list);
  }
  return copy;
}

void SemanticStore::Store(const catalog::TableDef& def, Box region,
                          const std::vector<Row>& rows, int64_t epoch) {
  if (region.empty()) return;
  const std::shared_ptr<TableCell> cell = cells_.GetOrCreate(def.name);
  std::lock_guard<std::mutex> lock(cell->write_mutex);

  const std::shared_ptr<const TableData> old = cell->data.Load();
  // Copies the view, coverage and chunk lists; rows and postings are shared.
  auto next = std::make_shared<TableData>(*old);
  AddCoverage(&next->coverage, region);
  if (next->domain_volume == 0) next->domain_volume = DomainVolume(def);
  for (const Row& row : rows) next->approx_bytes += ApproxRowBytes(row);
  if (next->views.empty()) {
    next->min_epoch = epoch;
    next->max_epoch = epoch;
  } else {
    next->min_epoch = std::min(next->min_epoch, epoch);
    next->max_epoch = std::max(next->max_epoch, epoch);
  }

  const std::vector<size_t> dims = def.ConstrainableColumns();
  const size_t num_dims = dims.size();
  if (next->postings.empty()) {
    next->postings.resize(num_dims);
    for (size_t d = 0; d < num_dims; ++d) {
      const Interval domain = def.columns[dims[d]].domain.ToInterval();
      PostingDim& dim = next->postings[d];
      dim.posted = domain.Width() > 1;
      dim.lo = domain.lo;
      const uint64_t max_offset =
          static_cast<uint64_t>(domain.hi) - static_cast<uint64_t>(domain.lo);
      while (dim.levels * kPostingBits < 64 &&
             (max_offset >> (dim.levels * kPostingBits)) != 0) {
        ++dim.levels;
      }
    }
  }
  std::vector<FreshPostings> fresh(num_dims);
  // The open (non-full) tail chunk may be referenced by the previous
  // snapshot, so appends go to a private copy of it; full chunks are shared
  // between snapshots untouched.
  std::shared_ptr<RowChunk> open;
  if (!next->chunks.empty() && next->chunks.back()->rows.size() < kRowChunk) {
    open = std::make_shared<RowChunk>(*next->chunks.back());
    next->chunks.back() = open;
  }
  auto view = std::make_shared<View>();
  view->epoch = epoch;
  view->rows.reserve(rows.size());
  for (const Row& row : rows) {
    std::optional<std::vector<int64_t>> point = PointOf(def, dims, row);
    if (!point.has_value()) {  // outside domains: kept only for export
      view->rows.push_back(kUnpooled |
                           static_cast<uint32_t>(view->unpooled.size()));
      view->unpooled.push_back(row);
      continue;
    }
    // Identical rows share their point, so the point-hash index finds any
    // pooled copy; in-batch duplicates are indexed as they pool.
    const uint64_t hash = PointHash(*point);
    uint32_t index = kUnpooled;
    const auto [first, last] = cell->pooled_by_point.equal_range(hash);
    for (auto it = first; it != last && index == kUnpooled; ++it) {
      if (next->PooledPoint(it->second) == *point &&
          next->PooledRow(it->second) == row) {
        index = it->second;
      }
    }
    if (index == kUnpooled) {
      index = static_cast<uint32_t>(next->pooled_rows);
      cell->pooled_by_point.emplace(hash, index);
      if (open == nullptr || open->rows.size() >= kRowChunk) {
        open = std::make_shared<RowChunk>();
        open->rows.reserve(kRowChunk);
        open->points.reserve(kRowChunk);
        next->chunks.push_back(open);
      }
      open->rows.push_back(row);  // the row's one copy
      for (size_t d = 0; d < num_dims; ++d) {
        if (next->postings[d].posted) fresh[d].emplace_back((*point)[d], index);
      }
      open->points.push_back(std::move(*point));
      ++next->pooled_rows;
    }
    view->rows.push_back(index);
  }
  for (size_t d = 0; d < num_dims; ++d) {
    if (fresh[d].empty()) continue;
    std::sort(fresh[d].begin(), fresh[d].end());  // by code, then index
    PostingDim& dim = next->postings[d];
    dim.root = WithPostings(dim.root.get(), dim.levels - 1, dim,
                            fresh[d].begin(), fresh[d].end());
  }

  view->region = std::move(region);
  next->views.push_back(std::move(view));
  cell->data.Store(std::move(next));
  version_.fetch_add(1, std::memory_order_release);
}

std::vector<StoredView> SemanticStore::ViewsOf(
    const std::string& table) const {
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return {};
  const std::shared_ptr<const TableData> data = cell->data.Load();
  std::vector<StoredView> out;
  out.reserve(data->views.size());
  for (const auto& view : data->views) {
    StoredView exported{view->region, {}, view->epoch};
    exported.rows.reserve(view->rows.size());
    for (const uint32_t ref : view->rows) {
      exported.rows.push_back(data->ViewRow(*view, ref));
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
  for (const auto& view : data.views) {
    if (view->epoch >= min_epoch) out.push_back(view->region);
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
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return {};
  return CoveredRegionsOf(*cell->data.Load(), min_epoch);
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
  const std::shared_ptr<TableCell> cell = cells_.Find(def.name);
  if (cell == nullptr) {
    CountProbe(nullptr, /*hit=*/false);
    return false;
  }
  const std::shared_ptr<const TableData> data = cell->data.Load();
  const bool covered = IsCoveredUnder(*data, region, min_epoch);
  CountProbe(cell.get(), covered);
  return covered;
}

std::vector<Row> SemanticStore::RowsInRegion(const catalog::TableDef& def,
                                             const Box& region,
                                             int64_t min_epoch) const {
  std::vector<Row> out = RowsInRegionImpl(def, region, min_epoch);
  const std::shared_ptr<TableCell> cell =
      region.empty() ? nullptr : cells_.Find(def.name);
  CountProbe(cell.get(), /*hit=*/!out.empty());
  return out;
}

std::vector<Row> SemanticStore::RowsInRegionImpl(const catalog::TableDef& def,
                                                 const Box& region,
                                                 int64_t min_epoch) const {
  std::vector<Row> out;
  if (region.empty()) return out;
  const std::shared_ptr<TableCell> cell = cells_.Find(def.name);
  if (cell == nullptr) return out;
  const std::shared_ptr<const TableData> snapshot = cell->data.Load();
  const TableData& data = *snapshot;

  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    // Weak consistency: serve from the deduplicated pool. Use the postings
    // of the most selective narrow dimension when one exists — selectivity
    // is the ACTUAL candidate count on that dimension's postings, not the
    // interval width: a one-value categorical dimension ("Country = 'US'")
    // has width 1 but may post every pooled row, while a four-station slab
    // posts a handful.
    size_t best_dim = region.num_dims();
    size_t best_candidates = std::numeric_limits<size_t>::max();
    for (size_t d = 0; d < region.num_dims() && d < data.postings.size();
         ++d) {
      if (!data.postings[d].posted) continue;  // single-point domain
      if (region.dim(d).Width() > 64) continue;  // too wide to enumerate
      size_t candidates = 0;
      for (int64_t code = region.dim(d).lo; code <= region.dim(d).hi;
           ++code) {
        const PostingList* list = data.postings[d].Find(code);
        if (list != nullptr) candidates += list->size;
      }
      if (candidates < best_candidates) {
        best_candidates = candidates;
        best_dim = d;
      }
    }
    const bool use_postings = best_dim < region.num_dims();
    if (use_postings) {
      out.reserve(best_candidates);
      for (int64_t code = region.dim(best_dim).lo;
           code <= region.dim(best_dim).hi; ++code) {
        const PostingList* list = data.postings[best_dim].Find(code);
        if (list == nullptr) continue;
        for (const auto& chunk : list->chunks) {
          for (const uint32_t i : *chunk) {
            if (region.Contains(data.PooledPoint(i))) {
              out.push_back(data.PooledRow(i));
            }
          }
        }
      }
    } else {
      out.reserve(data.pooled_rows);
      for (size_t i = 0; i < data.pooled_rows; ++i) {
        if (region.Contains(data.PooledPoint(i))) {
          out.push_back(data.PooledRow(i));
        }
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
  for (const auto& view : data.views) {
    if (view->epoch >= min_epoch && view->region.Overlaps(region)) {
      usable.push_back(view.get());
      candidate_rows += view->rows.size();
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
      if (!region.Contains(data.PooledPoint(ref))) continue;
      if (seen.insert(ref).second) out.push_back(data.PooledRow(ref));
    }
  }
  return out;
}

size_t SemanticStore::NumViews(const std::string& table) const {
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return 0;
  return cell->data.Load()->views.size();
}

size_t SemanticStore::TotalViews() const {
  size_t total = 0;
  cells_.ForEach([&](const std::string&, const TableCell& cell) {
    total += cell.data.Load()->views.size();
  });
  return total;
}

size_t SemanticStore::TotalStoredRows() const {
  size_t total = 0;
  cells_.ForEach([&](const std::string&, const TableCell& cell) {
    const std::shared_ptr<const TableData> data = cell.data.Load();
    for (const auto& view : data->views) total += view->rows.size();
  });
  return total;
}

std::vector<std::string> SemanticStore::TableNames() const {
  std::vector<std::string> names;
  cells_.ForEach([&](const std::string& name, const TableCell&) {
    names.push_back(name);
  });
  std::sort(names.begin(), names.end());
  return names;
}

void SemanticStore::DropTable(const std::string& table) {
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return;
  int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(cell->write_mutex);
    const std::shared_ptr<const TableData> old = cell->data.Load();
    dropped = static_cast<int64_t>(old->views.size());
    if (dropped == 0 && old->pooled_rows == 0) return;
    cell->data.Store(std::make_shared<const TableData>());
    cell->pooled_by_point.clear();
  }
  version_.fetch_add(1, std::memory_order_release);
  if (dropped > 0) {
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
    obs::Counter* metric = evictions_metric_.load(std::memory_order_relaxed);
    if (metric != nullptr) metric->Add(dropped);
  }
}

void SemanticStore::Clear() {
  int64_t dropped = 0;
  cells_.ForEach([&](const std::string&, const TableCell& cell) {
    dropped += static_cast<int64_t>(cell.data.Load()->views.size());
  });
  cells_.Clear();
  version_.fetch_add(1, std::memory_order_release);
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
  cells_.ForEach([&](const std::string& table, const TableCell& cell) {
    StoreTableStats stats;
    stats.table = table;
    stats.probes = cell.probes.load(std::memory_order_relaxed);
    stats.hits = cell.hits.load(std::memory_order_relaxed);
    stats.misses = cell.misses.load(std::memory_order_relaxed);
    const std::shared_ptr<const TableData> data = cell.data.Load();
    stats.views = data->views.size();
    stats.coverage_boxes = data->coverage.size();
    stats.pooled_rows = data->pooled_rows;
    stats.approx_bytes = data->approx_bytes;
    stats.min_epoch = data->min_epoch;
    stats.max_epoch = data->max_epoch;
    if (data->domain_volume > 0) {
      double covered = 0.0;
      for (const Box& box : data->coverage) {
        covered += static_cast<double>(box.Volume());
      }
      stats.covered_fraction =
          std::min(1.0, covered / static_cast<double>(data->domain_volume));
    }
    out.push_back(std::move(stats));
  });
  std::sort(out.begin(), out.end(),
            [](const StoreTableStats& a, const StoreTableStats& b) {
              return a.table < b.table;
            });
  return out;
}

std::string SemanticStore::StatsJson() const {
  const std::vector<StoreTableStats> tables = SnapshotStats();
  std::ostringstream os;
  os << "{\"version\":" << version() << ",\"probes\":" << TotalProbes()
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
