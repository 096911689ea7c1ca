// The shared observability context: one per deployment, shared by every
// PayLess client (tenant) that should report into the same metrics, cost
// ledger and budget governor. A PayLess built without one creates a
// private context, so single-tenant users get per-dataset attribution and
// metrics for free.
#ifndef PAYLESS_OBS_OBSERVABILITY_H_
#define PAYLESS_OBS_OBSERVABILITY_H_

#include <atomic>
#include <cstdint>

#include "obs/budget.h"
#include "obs/cost_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/savings.h"
#include "obs/trace.h"

namespace payless::obs {

struct Observability {
  Observability() : governor(&ledger) {}
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry metrics;
  CostLedger ledger;
  SavingsLedger savings;
  BudgetGovernor governor;
  /// Always-on ring of the last N completed query traces + scheduler
  /// events; dumped on query error, budget rejection or crash.
  FlightRecorder flight_recorder;
  /// Optional: finished query traces are mirrored here (owned by the
  /// caller; must outlive every client using this context).
  TraceSink* trace_sink = nullptr;
  /// Last query id handed out. Ids name traces, trace-sink records,
  /// flight-recorder entries and reports, so every client sharing this
  /// context draws from one counter.
  std::atomic<uint64_t> last_query_id{0};
};

}  // namespace payless::obs

#endif  // PAYLESS_OBS_OBSERVABILITY_H_
