#include "market/call_scheduler.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <queue>
#include <sstream>
#include <thread>
#include <tuple>

namespace payless::market {

namespace {

int64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

/// One ExecuteBatch in flight; lives on the caller's stack.
struct CallScheduler::Batch {
  /// An admitted item waiting out a delay before running `phase`.
  struct Timer {
    Clock::time_point due;
    size_t index = 0;
    Phase phase = Phase::kAttempt;
    bool operator>(const Timer& other) const {
      return std::tie(due, index) > std::tie(other.due, other.index);
    }
  };

  std::vector<MarketConnector::CallTask> tasks;
  std::vector<std::optional<Result<CallResult>>> outcomes;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
  size_t in_flight = 0;
  bool cancel_on_error = false;
  bool failed = false;  // a finished item failed; cancel the unadmitted
  /// Per-item call signatures (RestCall::ToString: table + conditions)
  /// for the coalescing meter; empty when the meter is off.
  std::vector<std::string> sigs;
  /// Item was admitted while an identical call was already in flight.
  std::vector<uint8_t> coalescable;
};

std::vector<std::optional<Result<CallResult>>> CallScheduler::ExecuteBatch(
    const std::vector<Item>& items, size_t max_in_flight,
    bool cancel_on_error) {
  const SchedulerHooks& hooks = connector_->scheduler_hooks_;
  const size_t n = items.size();
  const size_t window = std::max<size_t>(1, max_in_flight);
  Batch batch;
  batch.tasks.resize(n);
  batch.outcomes.resize(n);
  batch.cancel_on_error = cancel_on_error;
  for (size_t i = 0; i < n; ++i) {
    batch.tasks[i].call = items[i].call;
    batch.tasks[i].deadline = items[i].deadline;
    batch.tasks[i].call_obs = items[i].call_obs;
  }
  const bool meter_coalescing = hooks.coalescable_calls != nullptr ||
                                hooks.coalescable_transactions != nullptr ||
                                hooks.recorder != nullptr;
  if (meter_coalescing) {
    // RestCall::ToString is the full (table, conditions) identity, so equal
    // strings are byte-identical calls against the same dataset.
    batch.sigs.reserve(n);
    for (const Item& item : items) batch.sigs.push_back(item.call->ToString());
    batch.coalescable.assign(n, 0);
  }
  if (hooks.queue_depth != nullptr) {
    hooks.queue_depth->Add(static_cast<int64_t>(n));
  }

  const Clock::time_point submitted = Clock::now();
  size_t next = 0;  // next item index to admit
  while (true) {
    while (next < n && batch.in_flight < window) {
      const size_t i = next++;
      if (hooks.queue_depth != nullptr) hooks.queue_depth->Add(-1);
      const bool admit = !batch.failed;
      // Every admitted call's wait goes to the histogram. The query's
      // stage gets one interval per batch, from submission until the last
      // item left the queue: the union of its calls' waits.
      obs::QueryStageAccumulator* const stages =
          i + 1 == n && items[i].call_obs != nullptr
              ? items[i].call_obs->stages
              : nullptr;
      if ((admit && hooks.admission_wait != nullptr) || stages != nullptr) {
        const int64_t wait_micros = MicrosBetween(submitted, Clock::now());
        if (admit && hooks.admission_wait != nullptr) {
          hooks.admission_wait->Record(wait_micros);
        }
        if (stages != nullptr) {
          stages->Add(obs::kStageAdmissionWait, wait_micros);
        }
      }
      // Claim-time cancellation: a sibling's terminal failure stops money
      // being spent on a batch that can no longer deliver. outcomes[i]
      // stays empty.
      if (!admit) continue;
      ++batch.in_flight;
      if (hooks.in_flight != nullptr) hooks.in_flight->Add(1);
      if (!batch.sigs.empty()) {
        // Coalescing opportunity: is a byte-identical call already inside
        // an in-flight window (any batch, any thread) right now?
        std::lock_guard<std::mutex> lock(mutex_);
        int& identical = inflight_sigs_[batch.sigs[i]];
        batch.coalescable[i] = identical > 0 ? 1 : 0;
        ++identical;
      }
      Drive(&batch, i, Phase::kBegin);
    }
    if (batch.timers.empty()) break;  // nothing in flight, nothing queued
    const Batch::Timer timer = batch.timers.top();
    batch.timers.pop();
    std::this_thread::sleep_until(timer.due);
    Drive(&batch, timer.index, timer.phase);
  }

  if (meter_coalescing) {
    int64_t coalescable_calls = 0;
    int64_t coalescable_transactions = 0;
    size_t cancelled = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!batch.outcomes[i].has_value()) {
        ++cancelled;
        continue;
      }
      if (batch.coalescable[i] == 0 || !batch.outcomes[i]->ok()) continue;
      // This delivered call was byte-identical to one already in flight
      // when it was admitted: a dedup layer would have answered it from
      // the sibling's response and saved its transactions.
      ++coalescable_calls;
      coalescable_transactions += (*batch.outcomes[i])->transactions;
    }
    if (coalescable_calls > 0) {
      if (hooks.coalescable_calls != nullptr) {
        hooks.coalescable_calls->Add(coalescable_calls);
      }
      if (hooks.coalescable_transactions != nullptr) {
        hooks.coalescable_transactions->Add(coalescable_transactions);
      }
    }
    if (hooks.recorder != nullptr && n > 1) {
      std::ostringstream os;
      os << "{\"kind\":\"scheduler_batch\",\"items\":" << n
         << ",\"window\":" << window << ",\"cancelled\":" << cancelled
         << ",\"coalescable_calls\":" << coalescable_calls
         << ",\"coalescable_transactions\":" << coalescable_transactions
         << ",\"wall_us\":" << MicrosBetween(submitted, Clock::now())
         << "}";
      hooks.recorder->Record(os.str());
    }
  }
  return std::move(batch.outcomes);
}

void CallScheduler::Drive(Batch* batch, size_t index, Phase phase) {
  MarketConnector::CallTask* task = &batch->tasks[index];
  while (!task->done) {
    int64_t delay = 0;
    switch (phase) {
      case Phase::kBegin:
        connector_->BeginCall(task);
        phase = Phase::kAttempt;
        continue;
      case Phase::kAttempt:
        delay = connector_->BeginAttempt(task);
        phase = Phase::kComplete;
        break;
      case Phase::kComplete:
        delay = connector_->CompleteAttempt(task);
        phase = Phase::kAttempt;
        break;
    }
    if (!task->done && delay > 0) {
      batch->timers.push(Batch::Timer{
          Clock::now() + std::chrono::microseconds(delay), index, phase});
      return;
    }
  }
  FinishItem(batch, index);
}

void CallScheduler::FinishItem(Batch* batch, size_t index) {
  batch->outcomes[index] = std::move(batch->tasks[index].outcome);
  if (batch->cancel_on_error && !batch->outcomes[index]->ok()) {
    batch->failed = true;
  }
  if (!batch->sigs.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = inflight_sigs_.find(batch->sigs[index]);
    if (it != inflight_sigs_.end() && --it->second <= 0) {
      inflight_sigs_.erase(it);
    }
  }
  const SchedulerHooks& hooks = connector_->scheduler_hooks_;
  if (hooks.in_flight != nullptr) hooks.in_flight->Add(-1);
  --batch->in_flight;
}

}  // namespace payless::market
