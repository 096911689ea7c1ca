// Fixed-size thread pool for running independent jobs side by side.
//
// Deliberately minimal — no work stealing, no task futures: callers only
// need bounded fan-out with deterministic result merging, which
// ParallelFor provides by indexing results, not by completion order.
// (Market calls do not use it: the CallScheduler overlaps their round
// trips on the calling thread.)
#ifndef PAYLESS_COMMON_THREAD_POOL_H_
#define PAYLESS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace payless::common {

class ThreadPool {
 public:
  /// `num_threads == 0` falls back to the hardware concurrency (min 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: pending tasks still run before the workers exit.
  ~ThreadPool();

  /// Enqueues a task. Tasks must not throw and must not block on other
  /// tasks' completion (no nested ParallelFor over the same pool).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

  /// Process-wide shared pool, created on first use and never destroyed
  /// (client threads may still be inside it at static-destruction time).
  /// Its one user is the deployment advisor, which replays its grid cells
  /// on it in parallel.
  static ThreadPool* Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs `fn(0) ... fn(n-1)` with at most `max_parallel` invocations in
/// flight: up to `max_parallel - 1` pool workers plus the calling thread,
/// which always participates — so this makes progress (and degrades to the
/// plain serial loop) even when the pool is saturated or absent. Returns
/// after ALL n invocations finished. `fn` must be thread-safe; results
/// should be written to index-addressed slots so the merge order is the
/// caller's, not the completion order.
void ParallelFor(ThreadPool* pool, size_t n, size_t max_parallel,
                 const std::function<void(size_t)>& fn);

}  // namespace payless::common

#endif  // PAYLESS_COMMON_THREAD_POOL_H_
