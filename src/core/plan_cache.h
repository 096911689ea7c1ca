// Plan-template cache: skip the DP when nothing the cost depends on moved.
//
// The paper's whole evaluation workload (Figs. 10-15) is a handful of
// parameterized templates instantiated thousands of times, and a serving
// middleware sees exactly that shape: the same SQL template, over and over,
// from many clients. The cache keys on the normalized template, the
// parameter values and the consistency horizon.
//
// Invalidation is scoped to what the feedback changed. Each entry records,
// per market relation, its table and its legalized query region, which
// contains every box the optimizer and the savings counterfactual estimated
// for that relation. When a harvest's estimate misses by more than the
// q-error threshold (a drift tick, obs/accuracy.h), the statistics report
// the box whose estimates the feedback may have changed, and Invalidate
// drops exactly the entries that read that table over an overlapping
// region; their re-optimization picks up the refined histogram (the
// paper's uniform-to-learned plan switch, Fig. 3 step 5.4). A tick on a
// disjoint region cannot change any estimate those plans were priced with,
// so they stay. Routine feedback that merely confirms the estimates never
// ticks, so steady-state serving stays on the cached-plan fast path.
//
// No plan priced on pre-feedback statistics survives a tick that covers
// it: the harvest applies its feedback before it ticks and invalidates,
// and an insert is refused when any invalidation ran since its
// optimization started (checked under the shard's exclusive lock, which
// the invalidation scan also takes).
//
// Cached plans can never be result-wrong, only cost-suboptimal: the
// execution engine re-runs the SQR rewrite against the live semantic store,
// and store coverage under a fixed consistency horizon only grows between
// placement evictions. Eviction (PayLessConfig::placement_capacity_bytes)
// is the one thing that shrinks it, so a placement pass that evicts clears
// the cache before any query can probe it again.
//
// Thread-safe: entries live in hash-sharded plain maps, each behind one
// reader-writer lock. A lookup takes its shard's lock shared for one find,
// and a hit hands back a shared_ptr to the immutable cached entry instead
// of a deep copy of the plan. Inserts, invalidations and Clear take the
// lock exclusively and change the map in place. Hit/miss tallies are
// atomics so concurrent clients can read them cheaply.
#ifndef PAYLESS_CORE_PLAN_CACHE_H_
#define PAYLESS_CORE_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/geometry.h"
#include "common/value.h"
#include "core/plan.h"
#include "sql/bound_query.h"

namespace payless::core {

/// Canonical form of a SQL template for keying: the statement is re-lexed,
/// so whitespace and keyword case vanish while identifiers and string
/// literals (both case-sensitive in this dialect) survive verbatim —
/// formatting variants of one template share a cache line, distinct
/// identifiers never collide. Unlexable input falls back to the raw string
/// (it will miss, then fail in the parser like any other query).
std::string NormalizeSqlTemplate(const std::string& sql);

/// One market relation a plan was priced over: its table and its legalized
/// query region (semstore::ValidExpansion of BoundRelation::QueryRegion).
struct PricedRegion {
  const catalog::TableDef* table = nullptr;
  Box region;
};

/// The priced regions of `query`'s market relations, in relation order.
std::vector<PricedRegion> PricedRegionsOf(const sql::BoundQuery& query);

/// One cached optimization outcome: the plan and its counterfactual. The
/// savings accountant prices the counterfactual at insert time, so a
/// template's hit path reprices nothing and both paths report the
/// identical counterfactual (the what-if baseline only depends on the
/// estimates over `priced`, which invalidation keeps current). Its total is
/// -1 when it was not priced (savings accounting off, or the pricing
/// failed, which the hit then reports exactly as the miss did). Every
/// entry is inserted by the client that reads it and lives only in memory:
/// durability snapshots keep what was paid for, and a restarted client
/// re-plans each template against the recovered store and statistics.
struct CachedPlan {
  Plan plan;
  Counterfactual cf;
  /// What the plan and its counterfactual were priced over.
  std::vector<PricedRegion> priced;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
};

class PlanCache {
 public:
  /// `max_entries` bounds memory; an insert into a full shard drops that
  /// shard's entries first.
  explicit PlanCache(size_t max_entries = 1024) : max_entries_(max_entries) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Builds the full cache key for one query instance. `min_epoch` folds
  /// in the consistency horizon (it moves with the wall clock under
  /// kXWeek).
  static std::string MakeKey(const std::string& normalized_sql,
                             const std::vector<Value>& params,
                             int64_t min_epoch);

  /// One map find under the shard's shared lock. The returned entry is
  /// immutable and shared — callers copy the fields they need instead of
  /// the whole plan. nullptr on miss.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key) const;

  /// Invalidation count; read it before optimizing and pass it to Insert.
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_acquire);
  }

  /// Caches `entry` unless an invalidation ran since `invalidations_seen`
  /// was read (the plan may be priced on statistics that feedback has
  /// since changed). Returns whether it cached.
  bool Insert(const std::string& key, CachedPlan entry,
              uint64_t invalidations_seen);

  /// Drops every entry that read `table` over a region overlapping
  /// `changed`; an empty `changed` drops nothing. Returns the number of
  /// entries dropped.
  size_t Invalidate(const catalog::TableDef* table, const Box& changed);

  PlanCacheStats Stats() const;
  void Clear();

 private:
  static constexpr size_t kShards = 8;
  using ShardMap =
      std::unordered_map<std::string, std::shared_ptr<const CachedPlan>>;

  struct Shard {
    mutable std::shared_mutex mutex;
    ShardMap entries;  // guarded by `mutex`
  };

  /// The shard of `key`, by its string hash.
  static size_t ShardOf(const std::string& key);

  const size_t max_entries_;
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> invalidations_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace payless::core

#endif  // PAYLESS_CORE_PLAN_CACHE_H_
