// Copy-on-write snapshot cells and a sharded cell map: the concurrency
// substrate for the read-dominated hot path (the stats registry and the
// plan cache publish snapshot cells; the semantic store keys its
// lock-guarded table cells by the sharded map). Writers build a fresh immutable value and publish
// it with one release; readers pin the current snapshot with one
// acquire and then walk a structure that can never change underneath
// them. This is the epoch-validated optimistic-read protocol taken to its
// fixed point: the "epoch check" always succeeds because a published
// snapshot is immutable, so readers never retry on content and never
// block on writers building the next version.
#ifndef PAYLESS_COMMON_SNAPSHOT_H_
#define PAYLESS_COMMON_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

namespace payless::common {

/// One atomically publishable immutable value. Load() pins the current
/// snapshot (a reference-counted pointer copy under a per-cell lock bit
/// held for the duration of one refcount bump); Store() makes the new
/// value visible to all subsequent loads and destroys the displaced
/// snapshot outside the critical section. The pointed-to value must never
/// be mutated after Store() — copy, modify, re-publish instead.
///
/// Not std::atomic<std::shared_ptr> (libstdc++ _Sp_atomic): its load()
/// releases the embedded lock bit with memory_order_relaxed, so the plain
/// pointer-word read has no happens-before edge to the next store's plain
/// write — a formal data race (flagged by TSan) even though the lock bit
/// excludes in practice. This cell runs the same protocol with
/// acquire/release on BOTH paths, which makes it model-correct and keeps
/// the TSan preset meaningful for the code built on top.
template <typename T>
class SnapshotCell {
 public:
  SnapshotCell() = default;
  explicit SnapshotCell(std::shared_ptr<const T> initial)
      : ptr_(std::move(initial)) {}

  std::shared_ptr<const T> Load() const {
    Lock();
    std::shared_ptr<const T> pinned = ptr_;
    Unlock();
    return pinned;
  }

  void Store(std::shared_ptr<const T> next) {
    Lock();
    ptr_.swap(next);
    Unlock();
    // `next` now holds the displaced snapshot; its (possibly expensive)
    // destruction happens here, after the lock is released.
  }

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // The critical section is a single refcount bump, so the holder is
      // gone in nanoseconds — unless it was preempted, which on few-core
      // hosts makes spinning the worst response. Yield instead.
      std::this_thread::yield();
    }
  }

  void Unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const T> ptr_;
};

/// Stateless splitmix64 step — the per-call jitter generator. Feeding the
/// output back in as the next input yields a full-period 64-bit sequence;
/// distinct seeds give statistically independent streams, so every
/// in-flight market call can draw backoff jitter without sharing a mutex.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Maps `x` to a uniform double in [lo, hi).
inline double ToUnitRange(uint64_t x, double lo, double hi) {
  const double unit =
      static_cast<double>(x >> 11) * 0x1.0p-53;  // 53 mantissa bits
  return lo + (hi - lo) * unit;
}

inline constexpr std::size_t kDefaultShards = 16;

/// Shard index for a string key. Stable within a process run; used to
/// partition per-table state so writers to different tables never contend.
inline std::size_t ShardOf(std::string_view key, std::size_t num_shards) {
  return std::hash<std::string_view>{}(key) % num_shards;
}

/// A string-keyed map of long-lived cells, sharded by key hash. Lookups are
/// lock-free (one snapshot load of the shard's index plus a map find);
/// inserts copy-on-write the shard index under a per-shard writer mutex.
/// Cells themselves are shared_ptrs, so a reader that found a cell keeps it
/// alive even across a concurrent Clear().
template <typename Cell, std::size_t kShards = kDefaultShards>
class ShardedCellMap {
 public:
  using CellPtr = std::shared_ptr<Cell>;
  using Index = std::map<std::string, CellPtr>;

  ShardedCellMap() {
    for (Shard& s : shards_) s.index.Store(std::make_shared<const Index>());
  }

  /// Lock-free lookup; nullptr when absent.
  CellPtr Find(const std::string& key) const {
    const Shard& s = shards_[ShardOf(key, kShards)];
    const std::shared_ptr<const Index> idx = s.index.Load();
    const auto it = idx->find(key);
    return it == idx->end() ? nullptr : it->second;
  }

  /// Returns the existing cell or inserts a default-constructed one.
  CellPtr GetOrCreate(const std::string& key) {
    Shard& s = shards_[ShardOf(key, kShards)];
    {  // fast path: already present
      const std::shared_ptr<const Index> idx = s.index.Load();
      const auto it = idx->find(key);
      if (it != idx->end()) return it->second;
    }
    std::lock_guard<std::mutex> lock(s.write_mutex);
    const std::shared_ptr<const Index> idx = s.index.Load();
    const auto it = idx->find(key);
    if (it != idx->end()) return it->second;
    auto next = std::make_shared<Index>(*idx);
    CellPtr cell = std::make_shared<Cell>();
    (*next)[key] = cell;
    s.index.Store(std::move(next));
    return cell;
  }

  /// Visits every cell. Iteration is per-shard (keys sorted within a shard
  /// but not globally); callers needing global order must sort the results.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& s : shards_) {
      const std::shared_ptr<const Index> idx = s.index.Load();
      for (const auto& [key, cell] : *idx) fn(key, *cell);
    }
  }

  /// Drops every cell. Readers holding a cell keep it alive; subsequent
  /// lookups miss.
  void Clear() {
    for (Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.write_mutex);
      s.index.Store(std::make_shared<const Index>());
    }
  }

 private:
  struct Shard {
    std::mutex write_mutex;
    SnapshotCell<Index> index;
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace payless::common

#endif  // PAYLESS_COMMON_SNAPSHOT_H_
