// Semantic store (Fig. 3, step 5.3): every RESTful query PayLess ever
// issued, together with its result tuples. The store is append-only and
// never evicts — the paper deliberately trades cheap buyer-side storage for
// not re-buying data (§3). Stored views power semantic query rewriting
// (§4.2) and the three consistency levels (§4.3).
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
// Thread-safety: tables live in a hash-sharded cell map and each table's
// data is an immutable copy-on-write snapshot (common::SnapshotCell).
// Readers — Covers / RowsInRegion / CoveredRegions, the query hot path —
// take ZERO locks: one atomic snapshot load and they walk a structure that
// can never change underneath them. Writers (Store, fed by market-call
// results) serialize per table on a small writer mutex, build the next
// snapshot, and publish with a release store. Pooled rows and posting
// lists are append-only chunks shared between successive snapshots, so a
// Store copies only its new rows (each exactly once, into the pool), the
// chunks it appends to and the trie nodes leading to them, and the view
// and coverage lists. A monotonic version counter ticks on every mutation
// and is reported in StatsJson; plan-cache keys do not use it — they embed
// the drift epoch and the consistency horizon instead.
#ifndef PAYLESS_SEMSTORE_SEMANTIC_STORE_H_
#define PAYLESS_SEMSTORE_SEMANTIC_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/geometry.h"
#include "common/snapshot.h"
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
/// endpoint's row, also rendered into metrics. All counters are lifetime
/// (they survive Clear; the cleared views count as evictions).
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
  SemanticStore() = default;
  SemanticStore(const SemanticStore&) = delete;
  SemanticStore& operator=(const SemanticStore&) = delete;

  /// Remembers a call's region and result rows. Rows not yet pooled are
  /// copied into the pool; the view references them there. Serializes on
  /// the table's writer mutex, publishes a fresh snapshot; bumps version().
  void Store(const catalog::TableDef& def, Box region,
             const std::vector<Row>& rows, int64_t epoch);

  /// All views of a table (regardless of epoch) with their rows
  /// materialized from the pool, in Store order. Safe under concurrent
  /// Store; for export (the durability snapshot) and tests — the copy is
  /// deep.
  std::vector<StoredView> ViewsOf(const std::string& table) const;

  /// Regions of views no older than `min_epoch` (the X-week consistency
  /// filter; INT64_MIN = weak consistency, served from the normalized
  /// coverage). Returns a snapshot by value.
  std::vector<Box> CoveredRegions(const std::string& table,
                                  int64_t min_epoch) const;

  /// True iff usable views jointly cover `region` — the table's required
  /// tuples are free, making it a "zero price relation" (Theorem 2).
  /// Lock-free.
  bool Covers(const catalog::TableDef& def, const Box& region,
              int64_t min_epoch) const;

  /// Deduplicated stored tuples of `def` falling inside `region`, from
  /// views no older than `min_epoch`. Lock-free.
  std::vector<Row> RowsInRegion(const catalog::TableDef& def,
                                const Box& region, int64_t min_epoch) const;

  size_t NumViews(const std::string& table) const;
  size_t TotalViews() const;
  size_t TotalStoredRows() const;

  /// Names of every table with stored state, sorted. The durability
  /// snapshot iterates them (ViewsOf per table is the export).
  std::vector<std::string> TableNames() const;

  void Clear();

  /// Evicts one table's entire stored state (views, coverage, row pool),
  /// publishing an empty snapshot in its place — the placement policy's
  /// lever for staying under a capacity budget. Dropped views count as
  /// evictions; the table's lifetime probe counters survive. Bumps
  /// version().
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

  /// Per-table coverage summaries, sorted by table name. Reads snapshots —
  /// safe under concurrent queries and stores.
  std::vector<StoreTableStats> SnapshotStats() const;

  /// {"version":N,"probes":N,"hits":N,"misses":N,"evictions":N,
  ///  "tables":[{...per-table stats...}]}
  std::string StatsJson() const;

  /// Monotonic mutation counter: ticks on every Store and Clear. Two equal
  /// observations bracket an interval in which coverage was unchanged, so
  /// any plan optimized in between is still cost-correct.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  friend struct SemanticStorePeer;  // white-box tests of chunk sharing

  /// Rows are pooled in fixed-capacity chunks so successive snapshots share
  /// all full chunks; only the open tail chunk is copied by a Store.
  static constexpr size_t kRowChunkShift = 8;
  static constexpr size_t kRowChunk = 1u << kRowChunkShift;  // 256 rows

  struct RowChunk {
    std::vector<Row> rows;
    std::vector<std::vector<int64_t>> points;  // lattice point per row
  };

  /// Ascending pool indices of the rows sharing one coordinate, as
  /// fixed-capacity chunks: full chunks are shared by every later snapshot,
  /// and an append copies only the open tail chunk and this header.
  static constexpr size_t kPostingChunk = 256;
  using PostingChunk = std::vector<uint32_t>;
  struct PostingList {
    std::vector<std::shared_ptr<const PostingChunk>> chunks;
    size_t size = 0;
  };

  /// Persistent radix trie node over a dimension's lattice offsets (code
  /// minus the domain's low end), kPostingFanout-way. Interior levels fill
  /// `children`, the bottom level fills `lists`; a Store path-copies only
  /// the nodes that lead to the codes it appends to.
  static constexpr int kPostingBits = 4;
  static constexpr size_t kPostingFanout = size_t{1} << kPostingBits;
  struct PostingNode {
    std::vector<std::shared_ptr<const PostingNode>> children;
    std::vector<std::shared_ptr<const PostingList>> lists;
  };

  /// One dimension's postings. Dimensions whose whole domain is a single
  /// lattice point are not posted: their one list would mirror the entire
  /// pool, selective never.
  struct PostingDim {
    bool posted = false;
    int64_t lo = 0;  // offset base: the domain's low end
    int levels = 1;  // trie depth
    std::shared_ptr<const PostingNode> root;

    /// The posting list of `code`; nullptr when no pooled row has it.
    const PostingList* Find(int64_t code) const;
  };

  /// One remembered call inside a snapshot: its region and epoch, and its
  /// rows, in call order, as pool indices. A row without a lattice point (a
  /// NULL or off-domain constrainable value) is never pooled; it is kept
  /// verbatim in `unpooled` and referenced as kUnpooled | position.
  static constexpr uint32_t kUnpooled = uint32_t{1} << 31;
  struct View {
    Box region;
    int64_t epoch = 0;
    std::vector<uint32_t> rows;
    std::vector<Row> unpooled;
  };

  /// Immutable per-table snapshot: everything a reader needs, reachable
  /// from one acquire load. Never mutated after publication.
  struct TableData {
    std::vector<std::shared_ptr<const View>> views;
    std::vector<Box> coverage;  // normalized merged maximal boxes
    std::vector<std::shared_ptr<const RowChunk>> chunks;  // dedup row pool
    size_t pooled_rows = 0;
    std::vector<PostingDim> postings;  // one per constrainable dimension
    int64_t approx_bytes = 0;   // accumulated at Store time
    int64_t domain_volume = 0;  // lattice size, learned from the TableDef
    int64_t min_epoch = 0;      // oldest / newest stored view epochs
    int64_t max_epoch = 0;

    const Row& PooledRow(size_t i) const {
      return chunks[i >> kRowChunkShift]->rows[i & (kRowChunk - 1)];
    }
    const std::vector<int64_t>& PooledPoint(size_t i) const {
      return chunks[i >> kRowChunkShift]->points[i & (kRowChunk - 1)];
    }
    const Row& ViewRow(const View& view, uint32_t ref) const {
      return (ref & kUnpooled) != 0 ? view.unpooled[ref & ~kUnpooled]
                                    : PooledRow(ref);
    }
  };

  /// A Store's new postings of one dimension, (code, pool index) pairs.
  using FreshPosting = std::pair<int64_t, uint32_t>;
  using FreshPostings = std::vector<FreshPosting>;

  /// The subtree `node` (nullptr = empty) at trie `level` of `dim`, with
  /// the postings [first, last) appended: each node on a touched path is
  /// copied once, everything else is shared.
  static std::shared_ptr<const PostingNode> WithPostings(
      const PostingNode* node, int level, const PostingDim& dim,
      FreshPostings::const_iterator first, FreshPostings::const_iterator last);

  /// One table's cell: the published snapshot, the writer-side duplicate
  /// index and lifetime probe counters.
  struct TableCell {
    TableCell() { data.Store(std::make_shared<const TableData>()); }

    std::mutex write_mutex;  // serializes Store on this table
    common::SnapshotCell<TableData> data;
    /// Point hash -> pool index of every pooled row of `data`: Store's
    /// duplicate probe. Holds indices only — no second copy of the pool —
    /// and readers never touch it. Guarded by write_mutex.
    std::unordered_multimap<uint64_t, uint32_t> pooled_by_point;
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

  /// RowsInRegion without the probe accounting (the public wrapper counts).
  std::vector<Row> RowsInRegionImpl(const catalog::TableDef& def,
                                    const Box& region,
                                    int64_t min_epoch) const;

  /// Classify one probe outcome into the table's and the store's counters
  /// (and the bound registry counters, when any).
  void CountProbe(const TableCell* cell, bool hit) const;

  common::ShardedCellMap<TableCell> cells_;
  std::atomic<uint64_t> version_{0};

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
