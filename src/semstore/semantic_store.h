// Semantic store (Fig. 3, step 5.3): every RESTful query PayLess issued,
// together with its result tuples. The paper's store is append-only, trading
// cheap buyer-side storage for not re-buying data (§3); here the one way
// out is DropTable, the placement policy's lever for a capacity budget
// (PayLessConfig::placement_capacity_bytes). Stored views power semantic
// query rewriting (§4.2) and the three consistency levels (§4.3).
//
// Three internal structures serve the access patterns:
//   - a deduplicated per-table ROW POOL holds every stored tuple exactly
//     once, with per-dimension postings (pool indices by lattice code) for
//     cached-row retrieval;
//   - the raw VIEW LIST (region + epoch per call, and the call's rows as
//     references into the pool) supports epoch-filtered reads for X-week
//     consistency and is materialized back into rows only for export
//     (ViewsOf, the durability snapshot);
//   - a normalized COVERAGE list (merged maximal boxes) keeps remainder
//     generation fast as thousands of calls accumulate.
//
// Thread-safety: the store holds one cell per table of the catalog it was
// built over, fixed at construction, so a lookup takes no lock.
// Each table's state is plain mutable data behind one reader-writer lock.
// Store and DropTable take it exclusively and append or reset in place;
// Store encodes its rows before it takes the lock, so the exclusive
// section only probes for duplicates, pools new rows, appends the view and
// merges coverage. Every read (Covers / RowsInRegion / CoveredRegions on
// the query hot path, and the introspection and export calls) takes it
// shared and returns a copy, so no reference into a table escapes its
// lock. Reads outnumber writes by an order of magnitude, so readers seldom
// wait.
#ifndef PAYLESS_SEMSTORE_SEMANTIC_STORE_H_
#define PAYLESS_SEMSTORE_SEMANTIC_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/geometry.h"
#include "common/value.h"
#include "obs/metrics.h"

namespace payless::semstore {

/// One remembered REST call: the region of the table's constrainable-
/// attribute space the call covered, the tuples it returned, and the epoch
/// (coarse timestamp, e.g. a week counter) it was retrieved at. The export
/// form: inside the store a view references its rows in the pool.
struct StoredView {
  Box region;
  std::vector<Row> rows;
  int64_t epoch = 0;
};

/// Lattice point of a row in a table's constrainable-attribute space;
/// nullopt if some constrainable value is NULL or outside its domain.
std::optional<std::vector<int64_t>> RowPoint(const catalog::TableDef& def,
                                             const Row& row);

/// Introspection summary of one table's stored state — the /store
/// endpoint's row. All counters are lifetime (they survive DropTable; the
/// dropped views count as evictions).
struct StoreTableStats {
  std::string table;
  size_t views = 0;           // raw stored calls
  size_t coverage_boxes = 0;  // normalized merged maximal boxes
  size_t pooled_rows = 0;     // deduplicated tuples
  int64_t approx_bytes = 0;   // rough retained payload size
  /// Fraction of the table's constrainable-attribute lattice covered by the
  /// normalized coverage (sum of box volumes / domain volume, clamped to 1
  /// since merged boxes may still overlap). -1 when no domain is known yet.
  double covered_fraction = -1.0;
  int64_t probes = 0;  // Covers + RowsInRegion lookups against this table
  int64_t hits = 0;    // probe found usable coverage / rows
  int64_t misses = 0;  // probe came back empty-handed
  int64_t min_epoch = 0;  // oldest stored view's epoch (age lower bound)
  int64_t max_epoch = 0;  // newest stored view's epoch
};

class SemanticStore {
 public:
  /// One cell per table of `catalog`. A store over an empty catalog holds
  /// nothing, and every probe misses.
  explicit SemanticStore(const catalog::Catalog& catalog);
  SemanticStore(const SemanticStore&) = delete;
  SemanticStore& operator=(const SemanticStore&) = delete;

  /// Remembers a call's region and result rows; `def` must be a table of
  /// the catalog. Rows not yet pooled are copied into the pool; the view
  /// references them there.
  void Store(const catalog::TableDef& def, Box region,
             const std::vector<Row>& rows, int64_t epoch);

  /// All views of a table (regardless of epoch) with their rows
  /// materialized from the pool, in Store order. For export (the
  /// durability snapshot) and tests — the copy is deep.
  std::vector<StoredView> ViewsOf(const std::string& table) const;

  /// Regions of views no older than `min_epoch` (the X-week consistency
  /// filter; INT64_MIN = weak consistency, served from the normalized
  /// coverage). Returns a copy.
  std::vector<Box> CoveredRegions(const std::string& table,
                                  int64_t min_epoch) const;

  /// True iff usable views jointly cover `region` — the table's required
  /// tuples are free, making it a "zero price relation" (Theorem 2).
  bool Covers(const catalog::TableDef& def, const Box& region,
              int64_t min_epoch) const;

  /// Deduplicated stored tuples of `def` falling inside `region`, from
  /// views no older than `min_epoch`. Under weak consistency the rows come
  /// from the pool: by ascending code of the posted dimension with the
  /// fewest candidates (the lowest such dimension on a tie), pool order
  /// within a code, or in pool order when no dimension is narrow enough.
  /// Otherwise usable views are read newest first, first copy kept.
  std::vector<Row> RowsInRegion(const catalog::TableDef& def,
                                const Box& region, int64_t min_epoch) const;

  size_t NumViews(const std::string& table) const;
  size_t TotalViews() const;
  size_t TotalStoredRows() const;

  /// Names of every table, sorted. The durability snapshot iterates them
  /// (ViewsOf per table is the export).
  std::vector<std::string> TableNames() const;

  /// Evicts one table's entire stored state (views, coverage, row pool)
  /// under the table's exclusive lock — the placement policy's lever for
  /// staying under a capacity budget. Dropped views count as evictions;
  /// the table's lifetime probe counters survive.
  void DropTable(const std::string& table);

  /// Mirror probe outcomes and evictions into registry counters (pass
  /// nullptr to unbind). The store keeps its own atomics either way, so
  /// introspection works without a registry; binding only adds three
  /// relaxed increments per probe. Not thread-safe against in-flight
  /// probes: bind before serving queries.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions);

  /// Lifetime probe outcome counters (hits + misses == probes).
  int64_t TotalProbes() const {
    return probes_.load(std::memory_order_relaxed);
  }
  int64_t TotalHits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t TotalMisses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  int64_t TotalEvictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Per-table coverage summaries of every table, stored state or not,
  /// sorted by table name. Safe under concurrent queries and stores.
  std::vector<StoreTableStats> SnapshotStats() const;

  /// {"probes":N,"hits":N,"misses":N,"evictions":N,
  ///  "tables":[{...per-table stats...}]}
  std::string StatsJson() const;

 private:
  /// One dimension's postings: lattice code -> ascending pool indices of
  /// the rows with that code. Dimensions whose whole domain is a single
  /// lattice point are not posted: their one list would mirror the entire
  /// pool, selective never.
  struct PostingDim {
    bool posted = false;
    std::unordered_map<int64_t, std::vector<uint32_t>> lists;
  };

  /// One remembered call: its region and epoch, and its rows, in call
  /// order, as pool indices. A row without a lattice point (a NULL or
  /// off-domain constrainable value) is never pooled; it is kept verbatim
  /// in `unpooled` and referenced as kUnpooled | position.
  static constexpr uint32_t kUnpooled = uint32_t{1} << 31;
  struct View {
    Box region;
    int64_t epoch = 0;
    std::vector<uint32_t> rows;
    std::vector<Row> unpooled;
  };

  /// One table's stored state. `pool` and `points` share pool indices.
  struct TableData {
    std::vector<View> views;
    std::vector<Box> coverage;  // normalized merged maximal boxes
    std::vector<Row> pool;      // dedup row pool
    std::vector<std::vector<int64_t>> points;  // lattice point per pooled row
    std::vector<PostingDim> postings;  // one per constrainable dimension
    /// Point hash -> pool index of every pooled row: Store's duplicate
    /// probe. Holds indices only — no second copy of the pool.
    std::unordered_multimap<uint64_t, uint32_t> pooled_by_point;
    int64_t approx_bytes = 0;   // accumulated at Store time
    int64_t domain_volume = 0;  // lattice size, learned from the TableDef
    int64_t min_epoch = 0;      // oldest / newest stored view epochs
    int64_t max_epoch = 0;

    const Row& ViewRow(const View& view, uint32_t ref) const {
      return (ref & kUnpooled) != 0 ? view.unpooled[ref & ~kUnpooled]
                                    : pool[ref];
    }
  };

  /// One table's cell: its state, the lock that guards it, and lifetime
  /// probe counters.
  struct TableCell {
    mutable std::shared_mutex mutex;
    TableData data;  // guarded by `mutex`
    mutable std::atomic<int64_t> probes{0};
    mutable std::atomic<int64_t> hits{0};
    mutable std::atomic<int64_t> misses{0};
  };

  static void AddCoverage(std::vector<Box>* coverage, Box region);

  /// Views usable under `min_epoch`, as regions (weak consistency reads the
  /// normalized coverage instead — see IsCoveredUnder for the alloc-free
  /// variant used by Covers).
  static std::vector<Box> CoveredRegionsOf(const TableData& data,
                                           int64_t min_epoch);
  static bool IsCoveredUnder(const TableData& data, const Box& region,
                             int64_t min_epoch);

  /// RowsInRegion over one table's state, without the probe accounting.
  /// The caller holds the table's lock.
  static std::vector<Row> RowsOf(const TableData& data, const Box& region,
                                 int64_t min_epoch);

  /// Classify one probe outcome into the table's and the store's counters
  /// (and the bound registry counters, when any).
  void CountProbe(const TableCell* cell, bool hit) const;

  std::map<std::string, TableCell> cells_;  // built once, never resized

  mutable std::atomic<int64_t> probes_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<obs::Counter*> hits_metric_{nullptr};
  std::atomic<obs::Counter*> misses_metric_{nullptr};
  std::atomic<obs::Counter*> evictions_metric_{nullptr};
};

}  // namespace payless::semstore

#endif  // PAYLESS_SEMSTORE_SEMANTIC_STORE_H_
