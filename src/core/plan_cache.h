// Plan-template cache: skip the DP when nothing the cost depends on moved.
//
// The paper's whole evaluation workload (Figs. 10-15) is a handful of
// parameterized templates instantiated thousands of times, and a serving
// middleware sees exactly that shape: the same SQL template, over and over,
// from many clients. The cache keys on the normalized template, the
// parameter values, the consistency horizon, and a STALENESS EPOCH supplied
// by the estimator-accuracy tracker: the epoch ticks only when a market
// call's true result size diverges from its estimate by more than the
// configured q-error threshold — i.e. when the statistics that priced the
// cached plans were materially wrong. Routine feedback that merely confirms
// the estimates leaves the epoch (and thus every cached template) intact,
// so steady-state serving stays on the cached-plan fast path.
//
// Cached plans can never be result-wrong, only cost-suboptimal: the
// execution engine re-runs the SQR rewrite against the live semantic store,
// and store coverage under a fixed consistency horizon only grows between
// placement evictions. Eviction (PayLessConfig::placement_capacity_bytes)
// is the one thing that shrinks it, so a placement pass that evicts clears
// the cache before any query can probe it again. When the epoch ticks,
// older keys become unreachable, which IS the invalidation — no explicit
// flush, stale entries just age out of the bounded map, and the forced
// re-optimization picks up the refined histogram (the paper's
// uniform-to-learned plan switch, Fig. 3 step 5.4).
//
// Thread-safe and lock-free on the hit path: entries live in hash-sharded
// copy-on-write maps (one atomic snapshot load + a find per lookup), and a
// hit hands back a shared_ptr to the immutable cached entry instead of a
// deep copy of the plan. Inserts copy-on-write one shard under its writer
// mutex. Hit/miss tallies are atomics so concurrent clients can read them
// cheaply.
#ifndef PAYLESS_CORE_PLAN_CACHE_H_
#define PAYLESS_CORE_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/snapshot.h"
#include "common/value.h"
#include "core/plan.h"

namespace payless::core {

/// Canonical form of a SQL template for keying: the statement is re-lexed,
/// so whitespace and keyword case vanish while identifiers and string
/// literals (both case-sensitive in this dialect) survive verbatim —
/// formatting variants of one template share a cache line, distinct
/// identifiers never collide. Unlexable input falls back to the raw string
/// (it will miss, then fail in the parser like any other query).
std::string NormalizeSqlTemplate(const std::string& sql);

/// One cached optimization outcome: the plan plus the planning counters of
/// the optimization that produced it (so reports stay meaningful on hits).
/// The counterfactual fields are filled by the savings accountant at
/// insert time, so a template's hit path reprices nothing and both paths
/// report the identical counterfactual (the what-if baseline only depends
/// on the stats snapshot, which the epoch in the key pins). Every entry is
/// inserted by the client that reads it and lives only in memory:
/// durability snapshots keep what was paid for, and a restarted client
/// re-plans each template against the recovered store and statistics.
struct CachedPlan {
  Plan plan;
  PlanningCounters counters;
  /// Estimated transactions of the counterfactual plan (empty store, no
  /// cached template); -1 = not priced (savings accounting off, or the
  /// pricing failed, which the hit then reports exactly as the miss did).
  int64_t cf_total = -1;
  std::map<std::string, int64_t> cf_by_dataset;
  /// Shape signature of the counterfactual plan, for detecting
  /// learned-stats plan switches (signature mismatch vs executed plan).
  std::string cf_signature;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
};

class PlanCache {
 public:
  /// `max_entries` bounds memory; on overflow the whole map is dropped
  /// (entries are epoch-stamped, so most are already unreachable by the
  /// time the cache fills — wholesale eviction loses almost nothing).
  explicit PlanCache(size_t max_entries = 1024) : max_entries_(max_entries) {
    for (Shard& s : shards_) s.entries.Store(std::make_shared<const ShardMap>());
  }

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Builds the full cache key for one query instance. `staleness_epoch` is
  /// the accuracy tracker's drift epoch at optimization time (ticks only on
  /// estimate drift beyond the q-error threshold); `min_epoch` folds in the
  /// consistency horizon (it moves with the wall clock under kXWeek).
  static std::string MakeKey(const std::string& normalized_sql,
                             const std::vector<Value>& params,
                             uint64_t staleness_epoch, int64_t min_epoch);

  /// Lock-free: one shard-snapshot load plus a map find. The returned
  /// entry is immutable and shared — callers copy the fields they need
  /// instead of the whole plan. nullptr on miss.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key) const;
  void Insert(const std::string& key, CachedPlan entry);

  PlanCacheStats Stats() const;
  void Clear();

 private:
  static constexpr size_t kShards = 8;
  using ShardMap =
      std::unordered_map<std::string, std::shared_ptr<const CachedPlan>>;

  struct Shard {
    std::mutex write_mutex;
    common::SnapshotCell<ShardMap> entries;
  };

  const size_t max_entries_;
  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace payless::core

#endif  // PAYLESS_CORE_PLAN_CACHE_H_
