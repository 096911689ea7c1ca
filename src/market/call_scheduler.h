// The one way market calls are issued: runs a batch of GETs on the calling
// thread with up to a window of them in flight at once.
//
// Each call is the connector's phase machine (BeginCall -> BeginAttempt ->
// CompleteAttempt). A phase may return a delay the call must let elapse —
// the simulated round trip, or a retry backoff. The scheduler does not sleep
// through it: it arms a batch-local timer and drives the batch's other
// calls, and sleeps only when every admitted call is waiting, until the
// earliest timer is due. So one thread overlaps a whole window of round
// trips, and a single call (MarketConnector::Get) is a one-item batch.
//
// Billing, retries, breakers and listener dispatch all happen inside the
// connector's phase methods; the scheduler decides only WHEN a phase runs.
// Outcomes come back index-aligned with the items, calls are admitted
// strictly in item order, and fail-fast cancellation is decided when a call
// would be admitted into the window.
#ifndef PAYLESS_MARKET_CALL_SCHEDULER_H_
#define PAYLESS_MARKET_CALL_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "market/data_market.h"

namespace payless::market {

class CallScheduler {
 public:
  /// One call of a batch. The pointed-at objects must outlive ExecuteBatch.
  /// A batch's items belong to one query: the batch's admission wait is
  /// added to the last item's `call_obs->stages`.
  struct Item {
    const RestCall* call = nullptr;
    Clock::time_point deadline = kNoDeadline;
    const CallObs* call_obs = nullptr;
  };

  /// Instruments the batches through `connector`'s SchedulerHooks.
  explicit CallScheduler(MarketConnector* connector) : connector_(connector) {}

  CallScheduler(const CallScheduler&) = delete;
  CallScheduler& operator=(const CallScheduler&) = delete;

  /// Drives every item through the connector's call phases on the calling
  /// thread, with at most `max_in_flight` calls outstanding at once,
  /// admitting strictly in item order. Returns once the whole batch
  /// settled, with one outcome per item, index-aligned; nullopt means the
  /// item was cancelled before being issued (`cancel_on_error` and an
  /// earlier item failed) — it spent no money and saw no market state.
  ///
  /// Thread-safe: any number of threads may run batches concurrently.
  std::vector<std::optional<Result<CallResult>>> ExecuteBatch(
      const std::vector<Item>& items, size_t max_in_flight,
      bool cancel_on_error);

 private:
  struct Batch;
  enum class Phase { kBegin, kAttempt, kComplete };

  /// Runs item `index` from `phase` until a phase returns a delay (armed
  /// as a batch timer) or the call finishes.
  void Drive(Batch* batch, size_t index, Phase phase);
  void FinishItem(Batch* batch, size_t index);

  MarketConnector* const connector_;
  std::mutex mutex_;  // guards inflight_sigs_
  /// Signature -> number of identical calls currently inside an in-flight
  /// window, across all batches. Feeds the coalescing-opportunity meter;
  /// empty when the meter is off.
  std::map<std::string, int> inflight_sigs_;
};

}  // namespace payless::market

#endif  // PAYLESS_MARKET_CALL_SCHEDULER_H_
