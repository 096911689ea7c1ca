// Seeded 16-thread stress of the per-table locks: the semantic store's
// table cells and the stats registry's estimator cells, each plain data
// under one reader-writer lock. Writers harvest disjoint slabs (and fire
// feedback) across many tables; readers hammer the probe paths
// concurrently. Invariants checked after the dust settles:
//   - probe accounting balances exactly (hits + misses == probes);
//   - no slab is lost: every Store call is a view, every unique row is
//     pooled, every region stored is covered;
//   - eviction (DropTable) under way never corrupts a later quiescent
//     state.
// Run under the TSan preset, this is the data-race canary for the store's
// and the statistics' per-table reader-writer locks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "semstore/semantic_store.h"
#include "stats/estimator.h"

namespace payless::semstore {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

constexpr int64_t kWeak = std::numeric_limits<int64_t>::min();
constexpr int kNumTables = 64;
constexpr int kNumThreads = 16;  // half writers, half readers
constexpr int64_t kKeys = 256;   // K domain; each slab covers 4 keys

/// Deterministic per-thread sequence (splitmix64): the schedule is seeded,
/// only the interleaving varies run to run.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class ShardStressTest : public ::testing::Test {
 protected:
  static std::string TableName(int t) {
    return "T" + std::to_string(t);
  }

  static catalog::Catalog StressCatalog() {
    catalog::Catalog cat;
    EXPECT_TRUE(cat.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
    for (int t = 0; t < kNumTables; ++t) {
      TableDef def;
      def.name = TableName(t);
      def.dataset = "D";
      def.columns = {
          ColumnDef::Free("K", ValueType::kInt64,
                          AttrDomain::Numeric(1, kKeys)),
          ColumnDef::Free("D", ValueType::kInt64, AttrDomain::Numeric(1, 8)),
          ColumnDef::Output("V", ValueType::kDouble)};
      def.cardinality = kKeys * 8;
      EXPECT_TRUE(cat.RegisterTable(def).ok());
    }
    return cat;
  }

  /// Evicts every table, as a placement pass that drops them all would.
  void DropAll() {
    for (int t = 0; t < kNumTables; ++t) store_.DropTable(TableName(t));
  }

  const TableDef& def(int t) const { return *cat_.FindTable(TableName(t)); }

  /// Slab s of a table: keys [s*4+1, s*4+4], all dates. 64 disjoint slabs.
  static Box SlabRegion(int64_t s) {
    return Box({Interval(s * 4 + 1, s * 4 + 4), Interval(1, 8)});
  }

  static std::vector<Row> SlabRows(int64_t s) {
    std::vector<Row> rows;
    for (int64_t k = s * 4 + 1; k <= s * 4 + 4; ++k) {
      for (int64_t d = 1; d <= 8; ++d) {
        rows.push_back(
            Row{Value(k), Value(d), Value(static_cast<double>(k * 10 + d))});
      }
    }
    return rows;
  }

  catalog::Catalog cat_ = StressCatalog();
  SemanticStore store_{cat_};
};

TEST_F(ShardStressTest, ConcurrentStoreAndProbeAcrossShards) {
  constexpr int kSlabsPerTable = 16;  // 64 keys' worth per table
  std::atomic<int64_t> stores{0};

  std::vector<std::thread> threads;
  threads.reserve(kNumThreads);
  for (int w = 0; w < kNumThreads / 2; ++w) {
    threads.emplace_back([&, w] {
      // Writer w harvests slab s into every table where s % writers == w:
      // all writers touch all shards, no slab is stored twice.
      for (int t = 0; t < kNumTables; ++t) {
        for (int64_t s = w; s < kSlabsPerTable; s += kNumThreads / 2) {
          store_.Store(def(t), SlabRegion(s), SlabRows(s), /*epoch=*/s);
          stores.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < kNumThreads / 2; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0x5eed0000 + static_cast<uint64_t>(r);
      for (int i = 0; i < 2000; ++i) {
        rng = Mix(rng);
        const int t = static_cast<int>(rng % kNumTables);
        const int64_t s = static_cast<int64_t>((rng >> 8) % kSlabsPerTable);
        // Mixed probe kinds on the shared-lock paths; results depend on the
        // interleaving, only the accounting identity is asserted later.
        if (i % 2 == 0) {
          (void)store_.Covers(def(t), SlabRegion(s), kWeak);
        } else {
          const std::vector<Row> rows =
              store_.RowsInRegion(def(t), SlabRegion(s), kWeak);
          // A slab is all-or-nothing: a Store holds the table's lock.
          EXPECT_TRUE(rows.empty() || rows.size() == 32u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Probe accounting balances exactly.
  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());

  // No lost slabs: every Store surfaced as a view, every unique row pooled,
  // every region covered.
  EXPECT_EQ(stores.load(), kNumTables * kSlabsPerTable);
  EXPECT_EQ(store_.TotalViews(),
            static_cast<size_t>(kNumTables * kSlabsPerTable));
  EXPECT_EQ(store_.TotalStoredRows(),
            static_cast<size_t>(kNumTables * kSlabsPerTable * 32));
  for (int t = 0; t < kNumTables; ++t) {
    EXPECT_EQ(store_.NumViews(TableName(t)),
              static_cast<size_t>(kSlabsPerTable));
    for (int64_t s = 0; s < kSlabsPerTable; ++s) {
      EXPECT_TRUE(store_.Covers(def(t), SlabRegion(s), kWeak));
      EXPECT_EQ(store_.RowsInRegion(def(t), SlabRegion(s), kWeak).size(),
                32u);
    }
  }
}

TEST_F(ShardStressTest, DuplicateHarvestsPoolOnce) {
  // Every writer stores the SAME slabs: views accumulate (append-only) but
  // the deduplicated row pool must not — regardless of interleaving.
  std::vector<std::thread> threads;
  for (int w = 0; w < kNumThreads; ++w) {
    threads.emplace_back([&] {
      for (int t = 0; t < 8; ++t) {
        for (int64_t s = 0; s < 4; ++s) {
          store_.Store(def(t), SlabRegion(s), SlabRows(s), /*epoch=*/0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(store_.TotalViews(), static_cast<size_t>(kNumThreads * 8 * 4));
  // Views are append-only (raw rows accumulate); the deduplicated pool
  // must hold each tuple exactly once.
  size_t pooled = 0;
  for (const StoreTableStats& stats : store_.SnapshotStats()) {
    pooled += stats.pooled_rows;
  }
  EXPECT_EQ(pooled, static_cast<size_t>(8 * 4 * 32));
  for (int t = 0; t < 8; ++t) {
    for (int64_t s = 0; s < 4; ++s) {
      EXPECT_EQ(store_.RowsInRegion(def(t), SlabRegion(s), kWeak).size(),
                32u);
    }
  }
}

TEST_F(ShardStressTest, EvictionUnderConcurrentHarvest) {
  // Evictions racing Store must neither crash, corrupt a table, nor break
  // the accounting identity; afterwards a quiescent re-harvest fully
  // restores coverage.
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kNumThreads - 1; ++w) {
    threads.emplace_back([&, w] {
      uint64_t rng = 0xc1ea7 + static_cast<uint64_t>(w);
      for (int i = 0; i < 400; ++i) {
        rng = Mix(rng);
        const int t = static_cast<int>(rng % kNumTables);
        const int64_t s = static_cast<int64_t>((rng >> 8) % 16);
        store_.Store(def(t), SlabRegion(s), SlabRows(s), /*epoch=*/0);
        (void)store_.Covers(def(t), SlabRegion(s), kWeak);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      DropAll();
      std::this_thread::yield();
    }
  });
  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(store_.TotalHits() + store_.TotalMisses(), store_.TotalProbes());

  DropAll();
  EXPECT_EQ(store_.TotalViews(), 0u);
  for (int64_t s = 0; s < 16; ++s) {
    store_.Store(def(0), SlabRegion(s), SlabRows(s), /*epoch=*/0);
  }
  EXPECT_EQ(store_.NumViews(TableName(0)), 16u);
  EXPECT_EQ(store_.TotalStoredRows(), static_cast<size_t>(16 * 32));
  for (int64_t s = 0; s < 16; ++s) {
    EXPECT_TRUE(store_.Covers(def(0), SlabRegion(s), kWeak));
  }
}

TEST_F(ShardStressTest, ConcurrentFeedbackAndEstimates) {
  stats::StatsRegistry stats(cat_);

  std::atomic<int64_t> feedbacks{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kNumThreads / 2; ++w) {
    threads.emplace_back([&, w] {
      for (int t = 0; t < kNumTables; ++t) {
        for (int64_t s = w; s < 16; s += kNumThreads / 2) {
          stats.Feedback(TableName(t), SlabRegion(s), /*actual_rows=*/32);
          feedbacks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < kNumThreads / 2; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0xe571 + static_cast<uint64_t>(r);
      for (int i = 0; i < 4000; ++i) {
        rng = Mix(rng);
        const int t = static_cast<int>(rng % kNumTables);
        const int64_t s = static_cast<int64_t>((rng >> 8) % 16);
        const double est = stats.EstimateRows(TableName(t), SlabRegion(s));
        // Estimates from a half-warm histogram vary; they must never be
        // negative, NaN, or read torn state (TSan enforces the latter).
        EXPECT_GE(est, 0.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(static_cast<int64_t>(stats.TotalFeedbacks()), feedbacks.load());
  // Fully fed back: every slab's estimate is exact.
  for (int t = 0; t < kNumTables; ++t) {
    for (int64_t s = 0; s < 16; ++s) {
      EXPECT_NEAR(stats.EstimateRows(TableName(t), SlabRegion(s)), 32.0,
                  1e-9);
    }
  }
}

}  // namespace
}  // namespace payless::semstore
