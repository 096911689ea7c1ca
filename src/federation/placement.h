// Slab placement under a capacity budget.
//
// The semantic store is deliberately append-only — the paper trades cheap
// buyer-side storage for never re-buying data (§3). A federated buyer has
// a better lever: when local capacity is bounded, the slabs worth keeping
// are the ones that would be EXPENSIVE to re-buy at the cheapest live
// endpoint, and the ones worth evicting are cheap to re-acquire there.
// The PlacementPolicy ranks every stored table by re-buy cost per retained
// byte (transactions the cheapest live endpoint would bill for the pooled
// rows, divided by the table's approximate footprint) and evicts the
// lowest-value tables until the store fits the budget.
//
// PayLess owns the only caller: it ticks the policy once after every
// admitted query (once after a whole QueryBatch), under an exclusive lock
// that no query holds between its plan-cache probe and the end of its
// execution, since eviction shrinks coverage that cached plans and
// in-flight remainders rely on. A tick that evicts clears the plan cache
// and then snapshots, so a restart recovers the placement decision, not
// the pre-eviction state.
#ifndef PAYLESS_FEDERATION_PLACEMENT_H_
#define PAYLESS_FEDERATION_PLACEMENT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "federation/endpoint_router.h"
#include "semstore/semantic_store.h"

namespace payless::exec {
class PayLess;
}  // namespace payless::exec

namespace payless::federation {

class PlacementPolicy {
 public:
  /// One table's standing in the latest placement decision.
  struct TableValue {
    std::string table;
    std::string dataset;
    std::string cheapest_endpoint;  // where a re-buy would be routed
    int64_t bytes = 0;              // approx retained payload
    int64_t pooled_rows = 0;
    double rebuy_cost = 0.0;  // money to re-buy the pooled rows there
    bool retained = true;
  };

  /// `store`, `catalog` and `router` must outlive the policy.
  /// `capacity_bytes` (> 0) is the retained-payload budget (approx_bytes
  /// across tables). `router` supplies the endpoints' menus and liveness:
  /// a single market's router prices re-buys at that market's terms.
  PlacementPolicy(int64_t capacity_bytes, semstore::SemanticStore* store,
                  const catalog::Catalog* catalog,
                  const EndpointRouter* router);

  PlacementPolicy(const PlacementPolicy&) = delete;
  PlacementPolicy& operator=(const PlacementPolicy&) = delete;

  /// The latest pass's ranking (copy; empty before the first pass).
  std::vector<TableValue> LastDecision() const;

  int64_t evicted_tables() const;

  /// {"capacity_bytes":...,"retained_bytes":...,"ticks":...,
  ///  "evicted_tables":...,"tables":[{...}]} — spliced into /markets.
  std::string StatsJson() const;

 private:
  friend class exec::PayLess;

  /// One placement pass: rank tables and evict lowest-value until the
  /// store fits the budget. Returns the number of tables evicted. The
  /// caller must exclude queries and clear the plan cache after an
  /// eviction (see the file comment).
  size_t Tick();

  const int64_t capacity_bytes_;
  semstore::SemanticStore* store_;
  const catalog::Catalog* catalog_;
  const EndpointRouter* router_;

  mutable std::mutex mutex_;  // guards the decision fields below
  std::vector<TableValue> last_decision_;
  int64_t retained_bytes_ = 0;
  int64_t ticks_ = 0;
  int64_t evicted_tables_ = 0;
};

}  // namespace payless::federation

#endif  // PAYLESS_FEDERATION_PLACEMENT_H_
