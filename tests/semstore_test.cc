#include "semstore/semantic_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "market/rest_call.h"
#include "workload/bundle.h"

namespace payless::semstore {

/// White-box access to a table's published snapshot.
struct SemanticStorePeer {
  using List = SemanticStore::PostingList;
  /// (dimension, code) -> posting list, of every list in the snapshot.
  using Lists =
      std::map<std::pair<size_t, int64_t>, std::shared_ptr<const List>>;

  static std::shared_ptr<const SemanticStore::TableData> Snapshot(
      const SemanticStore& store, const std::string& table) {
    return store.cells_.Find(table)->data.Load();
  }

  static Lists PostingLists(const SemanticStore::TableData& data) {
    Lists out;
    for (size_t d = 0; d < data.postings.size(); ++d) {
      const SemanticStore::PostingDim& dim = data.postings[d];
      Walk(dim.root.get(), dim.levels - 1, 0, d, dim.lo, &out);
    }
    return out;
  }

  static const std::vector<std::shared_ptr<const SemanticStore::RowChunk>>&
  RowChunks(const SemanticStore::TableData& data) {
    return data.chunks;
  }

  static constexpr size_t kChunk = SemanticStore::kPostingChunk;

 private:
  static void Walk(const SemanticStore::PostingNode* node, int level,
                   uint64_t prefix, size_t d, int64_t lo, Lists* out) {
    if (node == nullptr) return;
    for (size_t slot = 0; slot < SemanticStore::kPostingFanout; ++slot) {
      const uint64_t offset = (prefix << SemanticStore::kPostingBits) | slot;
      if (level > 0) {
        Walk(node->children[slot].get(), level - 1, offset, d, lo, out);
      } else if (node->lists[slot] != nullptr) {
        (*out)[{d, lo + static_cast<int64_t>(offset)}] = node->lists[slot];
      }
    }
  }
};

namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

constexpr int64_t kWeak = std::numeric_limits<int64_t>::min();

class SemStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
    TableDef def;
    def.name = "T";
    def.dataset = "D";
    def.columns = {
        ColumnDef::Free("c", ValueType::kString,
                        AttrDomain::Categorical({"x", "y"})),
        ColumnDef::Free("d", ValueType::kInt64, AttrDomain::Numeric(0, 99)),
        ColumnDef::Output("v", ValueType::kDouble)};
    def.cardinality = 0;
    ASSERT_TRUE(cat_.RegisterTable(def).ok());
  }

  const TableDef& def() const { return *cat_.FindTable("T"); }

  static Row MakeRow(const std::string& c, int64_t d, double v) {
    return Row{Value(c), Value(d), Value(v)};
  }

  static Box Region(int64_t c, int64_t dlo, int64_t dhi) {
    return Box({Interval::Point(c), Interval(dlo, dhi)});
  }

  catalog::Catalog cat_;
  SemanticStore store_;
};

TEST_F(SemStoreTest, RowPointEncodesConstrainableColumns) {
  const auto point = RowPoint(def(), MakeRow("y", 42, 1.5));
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(*point, (std::vector<int64_t>{1, 42}));
}

TEST_F(SemStoreTest, RowPointRejectsOutOfDomain) {
  EXPECT_FALSE(RowPoint(def(), MakeRow("z", 42, 1.5)).has_value());
  EXPECT_FALSE(RowPoint(def(), MakeRow("x", 500, 1.5)).has_value());
  EXPECT_FALSE(RowPoint(def(), {Value::Null(), Value(int64_t{1}),
                                Value(0.0)}).has_value());
}

TEST_F(SemStoreTest, StoreAndCoverSingleView) {
  store_.Store(def(), Region(0, 10, 20), {MakeRow("x", 15, 1.0)}, 0);
  EXPECT_EQ(store_.NumViews("T"), 1u);
  EXPECT_TRUE(store_.Covers(def(), Region(0, 12, 18), kWeak));
  EXPECT_FALSE(store_.Covers(def(), Region(0, 12, 25), kWeak));
  EXPECT_FALSE(store_.Covers(def(), Region(1, 12, 18), kWeak));
}

TEST_F(SemStoreTest, EmptyRegionNotStored) {
  store_.Store(def(), Box({Interval::Empty(), Interval(0, 5)}), {}, 0);
  EXPECT_EQ(store_.NumViews("T"), 0u);
}

TEST_F(SemStoreTest, CoverageMergesAdjacentRanges) {
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(0, 10, 19), {}, 0);
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Region(0, 0, 19));
}

TEST_F(SemStoreTest, CoverageMergesOverlappingRanges) {
  store_.Store(def(), Region(0, 0, 12), {}, 0);
  store_.Store(def(), Region(0, 8, 20), {}, 0);
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Region(0, 0, 20));
}

TEST_F(SemStoreTest, CoverageDropsContainedRegions) {
  store_.Store(def(), Region(0, 0, 50), {}, 0);
  store_.Store(def(), Region(0, 10, 20), {}, 0);
  EXPECT_EQ(store_.CoveredRegions("T", kWeak).size(), 1u);
}

TEST_F(SemStoreTest, CoverageKeepsDisjointRegionsSeparate) {
  // Gap on the numeric dimension: no merge possible.
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(0, 50, 60), {}, 0);
  EXPECT_EQ(store_.CoveredRegions("T", kWeak).size(), 2u);
}

TEST_F(SemStoreTest, CoverageMergesAdjacentCategoricalSlabs) {
  // Codes 0 and 1 are adjacent: the two same-range slabs merge. Coverage
  // boxes may legally span several categorical values — only CALLS cannot.
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(1, 0, 9), {}, 0);
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Box({Interval(0, 1), Interval(0, 9)}));
}

TEST_F(SemStoreTest, ChainOfMergesCollapsesToOne) {
  store_.Store(def(), Region(0, 0, 9), {}, 0);
  store_.Store(def(), Region(0, 20, 29), {}, 0);
  store_.Store(def(), Region(0, 10, 19), {}, 0);  // bridges the gap
  const std::vector<Box> regions = store_.CoveredRegions("T", kWeak);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], Region(0, 0, 29));
}

TEST_F(SemStoreTest, RowsInRegionFiltersAndDedups) {
  store_.Store(def(), Region(0, 0, 20),
               {MakeRow("x", 5, 1.0), MakeRow("x", 15, 2.0)}, 0);
  store_.Store(def(), Region(0, 10, 30),
               {MakeRow("x", 15, 2.0), MakeRow("x", 25, 3.0)}, 0);
  const std::vector<Row> rows =
      store_.RowsInRegion(def(), Region(0, 0, 99), kWeak);
  EXPECT_EQ(rows.size(), 3u);  // the duplicate (x,15) appears once
  const std::vector<Row> narrow =
      store_.RowsInRegion(def(), Region(0, 10, 20), kWeak);
  ASSERT_EQ(narrow.size(), 1u);
  EXPECT_EQ(narrow[0][1], Value(int64_t{15}));
}

TEST_F(SemStoreTest, RowsInRegionUsesWidePathToo) {
  // A region wide on both dims exercises the linear pool scan.
  for (int64_t d = 0; d < 80; ++d) {
    store_.Store(def(), Region(d % 2, d, d), {MakeRow(d % 2 ? "y" : "x", d, 0.1)},
                 0);
  }
  const Box wide({Interval(0, 1), Interval(0, 99)});
  EXPECT_EQ(store_.RowsInRegion(def(), wide, kWeak).size(), 80u);
}

TEST_F(SemStoreTest, EpochFilteringForXWeekConsistency) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 5, 1.0)}, /*epoch=*/1);
  store_.Store(def(), Region(0, 10, 19), {MakeRow("x", 15, 2.0)},
               /*epoch=*/5);
  // min_epoch 3: only the newer view counts.
  EXPECT_FALSE(store_.Covers(def(), Region(0, 0, 9), 3));
  EXPECT_TRUE(store_.Covers(def(), Region(0, 10, 19), 3));
  EXPECT_EQ(store_.RowsInRegion(def(), Region(0, 0, 19), 3).size(), 1u);
  EXPECT_EQ(store_.RowsInRegion(def(), Region(0, 0, 19), 0).size(), 2u);
}

TEST_F(SemStoreTest, EpochPathPrefersNewestDuplicate) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 5, 1.0)}, 1);
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 5, 1.0)}, 2);
  EXPECT_EQ(store_.RowsInRegion(def(), Region(0, 0, 9), 0).size(), 1u);
}

TEST_F(SemStoreTest, Counters) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 1, 0.0)}, 0);
  store_.Store(def(), Region(1, 0, 9), {MakeRow("y", 1, 0.0)}, 0);
  EXPECT_EQ(store_.TotalViews(), 2u);
  EXPECT_EQ(store_.TotalStoredRows(), 2u);
  store_.Clear();
  EXPECT_EQ(store_.TotalViews(), 0u);
  EXPECT_TRUE(store_.CoveredRegions("T", kWeak).empty());
  EXPECT_TRUE(store_.RowsInRegion(def(), Region(0, 0, 9), kWeak).empty());
}

TEST_F(SemStoreTest, CoversEmptyRegionTrivially) {
  EXPECT_TRUE(store_.Covers(def(), Box({Interval::Empty(), Interval(0, 1)}),
                            kWeak));
}

TEST_F(SemStoreTest, ViewsOfUnknownTableEmpty) {
  EXPECT_TRUE(store_.ViewsOf("Nope").empty());
  EXPECT_EQ(store_.NumViews("Nope"), 0u);
}

TEST_F(SemStoreTest, ProbeCountersClassifyEveryOutcome) {
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 1, 0.0)}, 0);

  EXPECT_TRUE(store_.Covers(def(), Region(0, 2, 8), kWeak));   // hit
  EXPECT_FALSE(store_.Covers(def(), Region(0, 2, 50), kWeak));  // miss
  EXPECT_FALSE(store_.Covers(def(), Region(1, 2, 8), kWeak));   // miss
  // Empty region: trivially covered, still one (hit) probe.
  EXPECT_TRUE(store_.Covers(def(), Box({Interval::Empty(), Interval(0, 1)}),
                            kWeak));
  // Rows lookups are probes too: hit iff rows came back.
  EXPECT_FALSE(store_.RowsInRegion(def(), Region(0, 0, 9), kWeak).empty());
  EXPECT_TRUE(store_.RowsInRegion(def(), Region(1, 0, 9), kWeak).empty());

  EXPECT_EQ(store_.TotalProbes(), 6);
  EXPECT_EQ(store_.TotalHits(), 3);
  EXPECT_EQ(store_.TotalMisses(), 3);
  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());
}

TEST_F(SemStoreTest, BoundMetricsMirrorProbeAndEvictionCounters) {
  obs::Counter hits, misses, evictions;
  store_.BindMetrics(&hits, &misses, &evictions);
  store_.Store(def(), Region(0, 0, 9), {MakeRow("x", 1, 0.0)}, 0);
  store_.Store(def(), Region(1, 0, 9), {}, 0);

  EXPECT_TRUE(store_.Covers(def(), Region(0, 2, 8), kWeak));
  EXPECT_FALSE(store_.Covers(def(), Region(0, 50, 60), kWeak));
  EXPECT_EQ(hits.value(), 1);
  EXPECT_EQ(misses.value(), 1);
  EXPECT_EQ(evictions.value(), 0);

  // Clear() is the eviction point: one eviction per dropped view.
  store_.Clear();
  EXPECT_EQ(evictions.value(), 2);
  EXPECT_EQ(store_.TotalEvictions(), 2);
}

TEST_F(SemStoreTest, SnapshotStatsSummarizesCoverage) {
  store_.Store(def(), Region(0, 0, 49), {MakeRow("x", 1, 0.0)}, 3);
  store_.Store(def(), Region(1, 0, 99), {MakeRow("y", 2, 0.0)}, 5);
  EXPECT_TRUE(store_.Covers(def(), Region(0, 0, 9), kWeak));

  const std::vector<StoreTableStats> stats = store_.SnapshotStats();
  ASSERT_EQ(stats.size(), 1u);
  const StoreTableStats& t = stats[0];
  EXPECT_EQ(t.table, "T");
  EXPECT_EQ(t.views, 2);
  EXPECT_EQ(t.pooled_rows, 2);
  EXPECT_GT(t.approx_bytes, 0);
  EXPECT_EQ(t.min_epoch, 3);
  EXPECT_EQ(t.max_epoch, 5);
  EXPECT_EQ(t.probes, 1);
  EXPECT_EQ(t.hits, 1);
  // Domain is 2 categories x 100 values = 200 points; 50 + 100 covered.
  EXPECT_NEAR(t.covered_fraction, 150.0 / 200.0, 1e-9);

  const std::string json = store_.StatsJson();
  EXPECT_NE(json.find("\"tables\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"T\""), std::string::npos) << json;
  EXPECT_NE(json.find("covered_fraction"), std::string::npos) << json;
}

TEST_F(SemStoreTest, StoreSharesThePreviousSnapshotsPostingChunks) {
  // 600 distinct rows of country "x": its posting list spans two full
  // chunks and an open tail; every date list holds six entries.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) {
    rows.push_back(MakeRow("x", i % 100, static_cast<double>(i)));
  }
  store_.Store(def(), Region(0, 0, 99), rows, 0);
  const auto before = SemanticStorePeer::Snapshot(store_, "T");
  const SemanticStorePeer::Lists lists_before =
      SemanticStorePeer::PostingLists(*before);
  ASSERT_EQ(lists_before.size(), 101u);  // "x" + 100 dates
  const auto& x_before = lists_before.at({0, 0});
  ASSERT_EQ(x_before->size, 600u);
  ASSERT_EQ(x_before->chunks.size(), 3u);

  // One new row appends to the "x" list and to date 3's list only.
  store_.Store(def(), Region(0, 3, 3), {MakeRow("x", 3, 0.5)}, 1);
  const auto after = SemanticStorePeer::Snapshot(store_, "T");
  const SemanticStorePeer::Lists lists_after =
      SemanticStorePeer::PostingLists(*after);
  ASSERT_EQ(lists_after.size(), lists_before.size());
  size_t shared_lists = 0;
  size_t shared_full_chunks = 0;
  for (const auto& [key, old_list] : lists_before) {
    const auto& new_list = lists_after.at(key);
    const bool appended = key == std::make_pair(size_t{0}, int64_t{0}) ||
                          key == std::make_pair(size_t{1}, int64_t{3});
    if (!appended) {
      EXPECT_EQ(new_list, old_list) << key.first << "/" << key.second;
      shared_lists += new_list == old_list;
      continue;
    }
    EXPECT_NE(new_list, old_list);
    EXPECT_EQ(new_list->size, old_list->size + 1);
    for (size_t c = 0; c < old_list->chunks.size(); ++c) {
      if (old_list->chunks[c]->size() < SemanticStorePeer::kChunk) continue;
      EXPECT_EQ(new_list->chunks[c], old_list->chunks[c]) << "chunk " << c;
      ++shared_full_chunks;
    }
  }
  EXPECT_EQ(shared_lists, lists_before.size() - 2);
  EXPECT_EQ(shared_full_chunks, 2u);
  // Full row chunks are shared as well, and the old snapshot is untouched.
  const auto& rows_before = SemanticStorePeer::RowChunks(*before);
  const auto& rows_after = SemanticStorePeer::RowChunks(*after);
  EXPECT_EQ(rows_after[0], rows_before[0]);
  EXPECT_EQ(rows_after[1], rows_before[1]);
  EXPECT_EQ(x_before->size, 600u);
  EXPECT_EQ(x_before->chunks.back()->size(),
            600u - 2 * SemanticStorePeer::kChunk);
}

TEST_F(SemStoreTest, UnpooledRowsSurviveExportInCallOrder) {
  // A row whose constrainable value is NULL has no lattice point: never
  // pooled or served, yet its view exports it in place.
  const Row null_row{Value::Null(), Value(int64_t{4}), Value(0.25)};
  store_.Store(def(), Region(0, 0, 9),
               {MakeRow("x", 1, 0.0), null_row, MakeRow("x", 1, 0.0)}, 2);
  const std::vector<StoredView> views = store_.ViewsOf("T");
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].rows, (std::vector<Row>{MakeRow("x", 1, 0.0), null_row,
                                             MakeRow("x", 1, 0.0)}));
  EXPECT_EQ(views[0].epoch, 2);
  EXPECT_EQ(store_.TotalStoredRows(), 3u);
  EXPECT_EQ(store_.RowsInRegion(def(), Region(0, 0, 9), kWeak).size(), 1u);
  EXPECT_EQ(store_.RowsInRegion(def(), Region(0, 0, 9), 0).size(), 1u);
}

/// One billed call result, as the harvest listener saw it.
struct Harvest {
  const TableDef* def = nullptr;
  Box region;
  std::vector<Row> rows;
};

/// The first `want` harvests of the real workload's instance list run once
/// through a fresh client (the real_cold shape), on a small instance of the
/// real data so the test stays light.
std::vector<Harvest> RealColdHarvests(const workload::Bundle& bundle,
                                      size_t want) {
  auto client =
      workload::NewPayLessClient(bundle, workload::PayLessFullConfig());
  std::mutex mutex;
  std::vector<Harvest> harvests;
  client->connector()->AddListener(
      [&](const market::RestCall& call, const market::CallResult& result) {
        const TableDef* def = bundle.catalog.FindTable(call.table);
        std::lock_guard<std::mutex> lock(mutex);
        harvests.push_back({def, market::CallRegion(*def, call), result.rows});
      });
  for (const workload::QueryInstance& q : bundle.queries) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (harvests.size() >= want) break;
    }
    EXPECT_TRUE(client->QueryWithReport(q.sql, q.params).ok());
  }
  harvests.resize(std::min(harvests.size(), want));
  return harvests;
}

/// The store's contract, computed the slow way from a plain list of views
/// with full rows.
class NaiveStore {
 public:
  void Store(const Harvest& h, int64_t epoch) {
    if (h.region.empty()) return;
    views_.push_back({h.def, h.region, h.rows, epoch});
    Pool& pool = pools_[h.def->name];
    for (const Row& row : h.rows) {
      const auto point = RowPoint(*h.def, row);
      if (point.has_value() && pool.seen.insert(row).second) {
        pool.rows.push_back(row);
        pool.points.push_back(*point);
      }
    }
  }

  std::vector<Box> Regions(const std::string& table, int64_t min_epoch) const {
    std::vector<Box> out;
    for (const View& v : views_) {
      if (v.def->name == table && v.epoch >= min_epoch) out.push_back(v.region);
    }
    return out;
  }

  std::vector<StoredView> ViewsOf(const std::string& table) const {
    std::vector<StoredView> out;
    for (const View& v : views_) {
      if (v.def->name == table) out.push_back({v.region, v.rows, v.epoch});
    }
    return out;
  }

  size_t TotalStoredRows() const {
    size_t total = 0;
    for (const View& v : views_) total += v.rows.size();
    return total;
  }

  /// Weak consistency: the distinct stored rows in first-stored order,
  /// filtered to `region`, grouped by the code of the most selective narrow
  /// dimension (fewest stored rows within the region's interval on it, the
  /// first such dimension on ties) when one exists.
  std::vector<Row> WeakRows(const TableDef& def, const Box& region) const {
    const auto it = pools_.find(def.name);
    if (it == pools_.end()) return {};
    const std::vector<Row>& pool = it->second.rows;
    const std::vector<std::vector<int64_t>>& points = it->second.points;
    const std::vector<size_t> cols = def.ConstrainableColumns();
    std::optional<size_t> best;
    size_t best_count = 0;
    for (size_t d = 0; d < region.num_dims(); ++d) {
      if (def.columns[cols[d]].domain.size() <= 1) continue;
      if (region.dim(d).Width() > 64) continue;
      size_t count = 0;
      for (const auto& p : points) count += region.dim(d).Contains(p[d]);
      if (!best.has_value() || count < best_count) {
        best = d;
        best_count = count;
      }
    }
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (best.has_value()) {
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return points[a][*best] < points[b][*best];
      });
    }
    std::vector<Row> out;
    for (const size_t i : order) {
      if (region.Contains(points[i])) out.push_back(pool[i]);
    }
    return out;
  }

  /// X-week consistency: usable views newest first (Store order among
  /// equal epochs), their in-region rows, first occurrence of each tuple.
  std::vector<Row> EpochRows(const TableDef& def, const Box& region,
                             int64_t min_epoch) const {
    std::vector<const View*> usable;
    for (const View& v : views_) {
      if (v.def->name == def.name && v.epoch >= min_epoch &&
          v.region.Overlaps(region)) {
        usable.push_back(&v);
      }
    }
    std::stable_sort(usable.begin(), usable.end(),
                     [](const View* a, const View* b) {
                       return a->epoch > b->epoch;
                     });
    std::vector<Row> out;
    std::unordered_set<Row, RowHasher> seen;
    for (const View* v : usable) {
      for (const Row& row : v->rows) {
        const auto point = RowPoint(def, row);
        if (!point.has_value() || !region.Contains(*point)) continue;
        if (seen.insert(row).second) out.push_back(row);
      }
    }
    return out;
  }

 private:
  struct View {
    const TableDef* def;
    Box region;
    std::vector<Row> rows;
    int64_t epoch;
  };
  /// Distinct rows with a lattice point, in first-stored order.
  struct Pool {
    std::vector<Row> rows;
    std::vector<std::vector<int64_t>> points;
    std::unordered_set<Row, RowHasher> seen;
  };
  std::vector<View> views_;
  std::map<std::string, Pool> pools_;
};

/// `inner` lies inside the union of `outer`.
bool AllCovered(const std::vector<Box>& inner, const std::vector<Box>& outer) {
  return std::all_of(inner.begin(), inner.end(),
                     [&](const Box& b) { return IsCovered(b, outer); });
}

TEST(SemStoreReplayTest, RealColdHarvestsMatchNaiveReference) {
  workload::RealDataOptions options;
  options.scale = 0.02;
  options.days = 730;
  const std::unique_ptr<workload::Bundle> bundle =
      workload::MakeRealBundle(options, 200, /*query_seed=*/1);
  const std::vector<Harvest> harvests = RealColdHarvests(*bundle, 320);
  ASSERT_GE(harvests.size(), 300u);

  SemanticStore store;
  NaiveStore naive;
  for (size_t i = 0; i < harvests.size(); ++i) {
    const Harvest& h = harvests[i];
    // Mixed, non-monotonic epochs exercise the X-week ordering.
    const int64_t epoch = static_cast<int64_t>((i * 7) % 5);
    store.Store(*h.def, h.region, h.rows, epoch);
    naive.Store(h, epoch);
    SCOPED_TRACE("harvest " + std::to_string(i) + " on " + h.def->name);

    // Probe the new region, an older one, and a strip of the table.
    std::vector<Box> probes = {h.region, harvests[i / 2].region};
    Box strip = h.def->FullRegion();
    if (strip.num_dims() > 0) strip.dim(0) = h.region.dim(0);
    probes.push_back(strip);
    for (const Box& probe : probes) {
      if (probe.num_dims() != h.region.num_dims()) continue;
      EXPECT_EQ(store.Covers(*h.def, probe, kWeak),
                IsCovered(probe, naive.Regions(h.def->name, kWeak)));
      EXPECT_EQ(store.RowsInRegion(*h.def, probe, kWeak),
                naive.WeakRows(*h.def, probe));
      for (const int64_t min_epoch : {int64_t{2}, int64_t{4}}) {
        EXPECT_EQ(store.Covers(*h.def, probe, min_epoch),
                  IsCovered(probe, naive.Regions(h.def->name, min_epoch)));
        EXPECT_EQ(store.RowsInRegion(*h.def, probe, min_epoch),
                  naive.EpochRows(*h.def, probe, min_epoch));
      }
    }
    EXPECT_EQ(store.CoveredRegions(h.def->name, 3),
              naive.Regions(h.def->name, 3));
    const std::vector<Box> coverage = store.CoveredRegions(h.def->name, kWeak);
    const std::vector<Box> regions = naive.Regions(h.def->name, kWeak);
    EXPECT_TRUE(AllCovered(coverage, regions) && AllCovered(regions, coverage));
    EXPECT_EQ(store.TotalStoredRows(), naive.TotalStoredRows());
  }
  for (const std::string& table : bundle->catalog.TableNames()) {
    const std::vector<StoredView> got = store.ViewsOf(table);
    const std::vector<StoredView> want = naive.ViewsOf(table);
    ASSERT_EQ(got.size(), want.size()) << table;
    for (size_t v = 0; v < got.size(); ++v) {
      EXPECT_EQ(got[v].region, want[v].region) << table << " view " << v;
      EXPECT_EQ(got[v].rows, want[v].rows) << table << " view " << v;
      EXPECT_EQ(got[v].epoch, want[v].epoch) << table << " view " << v;
    }
  }
}

}  // namespace
}  // namespace payless::semstore
