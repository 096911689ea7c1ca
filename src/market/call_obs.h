// Per-call observability context threaded from the query down into the
// market connector. Everything is optional: a default-constructed CallObs
// makes the connector behave exactly as before (no attribution, no spans).
//
// The connector is the ONLY place transactions accrue, so it is also the
// only place attribution can be exact: every meter Record — delivered
// results AND billed-but-lost responses — is mirrored into the ledger's
// rollups under this context's tenant and into the spend record of the
// purchase that issued the call, which is what keeps the ledger-total ==
// meter-total invariant true under retries and faults.
#ifndef PAYLESS_MARKET_CALL_OBS_H_
#define PAYLESS_MARKET_CALL_OBS_H_

#include <cstdint>
#include <string>

#include "obs/cost_ledger.h"
#include "obs/latency.h"
#include "obs/trace.h"

namespace payless::market {

struct CallObs {
  std::string tenant = "default";
  /// Tenant and dataset rollups; nullptr = no ledger attribution.
  obs::CostLedger* ledger = nullptr;
  /// The issuing purchase's record (one plan access, one batch prefetch
  /// group): every evaluated call's cost, and each finished call's
  /// retries. nullptr = not recorded.
  obs::SpendRecord* spend = nullptr;
  /// Span collector; nullptr = no call spans.
  obs::Trace* trace = nullptr;
  /// Parent span id for the call spans the connector opens (0 = root).
  uint64_t parent_span = 0;
  /// Per-query stage decomposition target; nullptr = no stage attribution.
  /// The scheduler adds admission waits, the connector adds per-attempt
  /// RTTs and backoff sleeps.
  obs::QueryStageAccumulator* stages = nullptr;
};

}  // namespace payless::market

#endif  // PAYLESS_MARKET_CALL_OBS_H_
