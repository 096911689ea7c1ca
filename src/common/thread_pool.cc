#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace payless::common {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool* ThreadPool::Shared() {
  // Sized for latency-bound work, not CPU-bound: advisor cells replay
  // against a simulated round trip, so fan-outs above the core count still
  // pay off on small machines. Leaked deliberately (process-long).
  static ThreadPool* pool = new ThreadPool(
      std::max(16u, std::thread::hardware_concurrency()));
  return pool;
}

namespace {

/// Shared between the caller and its helpers; shared_ptr-owned so whichever
/// participant finishes last tears it down — the caller may return while a
/// slow helper is still inside its final unlock.
struct ParallelForState {
  const std::function<void(size_t)>* fn = nullptr;  // outlives all claims
  size_t n = 0;
  size_t helpers = 0;
  std::atomic<size_t> next{0};
  size_t done_helpers = 0;  // guarded by mutex
  std::mutex mutex;
  std::condition_variable cv;

  void Drain() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      (*fn)(i);
    }
  }
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n, size_t max_parallel,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t helpers =
      pool == nullptr
          ? 0
          : std::min({max_parallel > 0 ? max_parallel - 1 : 0,
                      pool->num_threads(), n - 1});
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->fn = &fn;  // all uses finish before the caller's wait returns
  state->n = n;
  state->helpers = helpers;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] {
      state->Drain();
      std::lock_guard<std::mutex> lock(state->mutex);
      if (++state->done_helpers == state->helpers) state->cv.notify_one();
    });
  }
  state->Drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&state] { return state->done_helpers == state->helpers; });
}

}  // namespace payless::common
