#include "exec/execution_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "core/optimizer.h"
#include "exec/local_eval.h"
#include "federation/endpoint_router.h"
#include "market/call_scheduler.h"
#include "market/rest_call.h"
#include "obs/trace.h"

namespace payless::exec {

namespace {

/// Row collector with whole-row deduplication (cached and freshly fetched
/// tuples can overlap when a remainder box spans stored regions).
class RowSet {
 public:
  void Add(const Row& row) {
    if (seen_.insert(row).second) rows_.push_back(row);
  }
  void AddAll(const std::vector<Row>& rows) {
    for (const Row& row : rows) Add(row);
  }
  std::vector<Row> Take() { return std::move(rows_); }
  size_t size() const { return rows_.size(); }

 private:
  std::unordered_set<Row, RowHasher> seen_;
  std::vector<Row> rows_;
};

/// Microseconds elapsed since `start` — the stage-decomposition clock.
int64_t StageMicros(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The in-flight window of one access's calls (ExecConfig's 0 = 16).
size_t CallWindow(const ExecConfig& config) {
  return config.max_parallel_calls != 0 ? config.max_parallel_calls : 16;
}

/// Issues every call as one scheduler batch with up to `window` calls in
/// flight, and merges results strictly in call order into `rows` (nullable:
/// the listeners still see every delivery), so rows, row order, per-call
/// billing and stats are byte-identical at any window. Errors are reported
/// in call order too. Pricing depends only on seller-side data (never on
/// buyer-side state), so issue order cannot change what any one call is
/// billed. `delivered[i]` tells whether call i delivered.
///
/// Fail-fast under faults: the first call whose retries exhaust (or whose
/// deadline blows) cancels the not-yet-issued siblings, so a doomed access
/// stops spending money. Calls already delivered stay billed AND counted in
/// exec_stats — that is the query's spend-so-far, and their results reached
/// the listeners, so a re-issued query reuses them via the semantic store.
Status IssueCalls(market::MarketConnector* connector, size_t window,
                  const std::vector<market::RestCall>& calls,
                  market::Clock::time_point deadline,
                  const market::CallObs& call_obs, RowSet* rows,
                  ExecStats* exec_stats, std::vector<bool>* delivered) {
  std::vector<market::CallScheduler::Item> items(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    items[i] = market::CallScheduler::Item{&calls[i], deadline, &call_obs};
  }
  std::vector<std::optional<Result<market::CallResult>>> outcomes =
      connector->scheduler()->ExecuteBatch(items, window,
                                           /*cancel_on_error=*/true);
  delivered->assign(calls.size(), false);
  // Accumulate EVERY delivered result before reporting the (call-order
  // first) error, so exec_stats is the true spend-so-far.
  Status first_error = Status::OK();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::optional<Result<market::CallResult>>& outcome = outcomes[i];
    if (!outcome.has_value()) {
      if (exec_stats != nullptr) ++exec_stats->calls_cancelled;
      continue;  // skipped after a sibling's failure: never issued
    }
    Result<market::CallResult>& result = *outcome;
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    (*delivered)[i] = true;
    if (rows != nullptr) rows->AddAll(result->rows);
    if (exec_stats != nullptr) {
      ++exec_stats->calls;
      exec_stats->transactions += result->transactions;
      exec_stats->rows_from_market += result->num_records;
    }
  }
  return first_error;
}

/// IssueCalls at `buy_site`'s connector plus cross-endpoint failover. When
/// the current endpoint dies for this dataset (breaker open / retries
/// exhausted — a retryable code), only the calls that delivered NOTHING
/// there are re-issued at the next-cheapest live endpoint the router names.
/// Delivered calls stay billed at the endpoint that served them and their
/// rows are already merged, so failover never buys a row twice; each
/// connector bills its own meter, so the ledger keeps reconciling with the
/// per-endpoint meter totals. A single market has no other endpoint to
/// fail over to.
Status IssueWithFailover(federation::EndpointRouter* router,
                         const std::string& buy_site,
                         const std::string& dataset, size_t window,
                         std::vector<market::RestCall> calls,
                         market::Clock::time_point deadline,
                         const market::CallObs& call_obs, RowSet* rows,
                         ExecStats* exec_stats) {
  market::MarketConnector* connector = router->ConnectorFor(buy_site);
  std::vector<std::string> tried;
  while (true) {
    if (!calls.empty()) {
      router->CountRoutedCalls(connector->market_label(),
                               static_cast<int64_t>(calls.size()));
    }
    std::vector<bool> delivered;
    const Status status =
        IssueCalls(connector, window, calls, deadline, call_obs, rows,
                   exec_stats, &delivered);
    if (status.ok() || !IsRetryable(status.code())) return status;
    std::vector<market::RestCall> remaining;
    remaining.reserve(calls.size());
    for (size_t i = 0; i < calls.size(); ++i) {
      if (!delivered[i]) remaining.push_back(std::move(calls[i]));
    }
    tried.push_back(connector->market_label());
    const std::string next = router->NextCheapestLive(dataset, tried);
    if (next.empty()) return status;  // every endpoint tried or down
    connector = router->ConnectorFor(next);
    router->CountFailover();
    calls = std::move(remaining);
  }
}

}  // namespace

Result<storage::Table> ExecutionEngine::FetchRelation(
    const sql::BoundQuery& query, const core::AccessSpec& access,
    size_t access_index, const JoinedRows& joined, const ExecConfig& config,
    ExecStats* exec_stats, obs::AccessActuals* actuals) {
  const sql::BoundRelation& rel = query.relations[access.rel];
  const catalog::TableDef& def = *rel.def;

  // Per-operator span: every access of the plan gets one; the market-call
  // and harvest spans the connector opens underneath are its children. The
  // estimate attrs mirror the AccessSpec, so a trace consumer can compare
  // estimated vs. actual per access; the actual deltas are attached below,
  // after the access ran.
  obs::ScopedSpan access_span(config.obs.trace, "access:" + def.name,
                              config.obs.parent_span);
  access_span.AddAttr("kind", std::string(core::AccessKindName(access.kind)));
  access_span.AddAttr("access_index", static_cast<int64_t>(access_index));
  access_span.AddAttr("est_rows", llround(access.est_rows));
  access_span.AddAttr("est_transactions", access.est_transactions);
  access_span.AddAttr("est_calls", access.est_calls);
  if (access.kind == core::AccessSpec::Kind::kBind) {
    access_span.AddAttr("est_bind_values", llround(access.est_bind_values));
  }
  market::CallObs call_obs = config.obs;
  if (access_span.id() != 0) call_obs.parent_span = access_span.id();
  actuals->present = true;
  call_obs.spend = &actuals->spend;

  // Buy-site routing: this access's calls start at the connector of the
  // endpoint the optimizer chose (`buy_site`; "" for a single market).
  // Failover mid-access is handled inside IssueWithFailover.
  if (!access.buy_site.empty()) {
    access_span.AddAttr("buy_site", access.buy_site);
  }

  const ExecStats before = *exec_stats;
  const auto fetch = [&]() -> Result<storage::Table> {
    storage::Table table(storage::SchemaFromTableDef(def));

    // A priced access (kPlain, kBind) is two things: `rows`, the rows the
    // semantic store already holds, and `calls`, the REST calls that buy
    // the rest. The switch fills both; one IssueWithFailover buys the calls.
    RowSet rows;
    std::vector<market::RestCall> calls;
    const auto hold = [&](const Box& box) {
      const std::vector<Row> held =
          store_->RowsInRegion(def, box, config.min_epoch);
      exec_stats->rows_from_cache += static_cast<int64_t>(held.size());
      rows.AddAll(held);
    };
    // Holds the stored rows on `slabs` and adds the calls that buy the rest
    // of `region`: the remainder Algorithm 1 picks against the live store
    // (views may have grown since planning, earlier accesses of this very
    // query included), chunked by the buy-site's page size — the terms the
    // chosen endpoint actually bills under, not the base catalog's.
    //
    // The coverage snapshot MUST be taken before the row harvest: the store
    // only grows while this query runs (placement eviction waits for it,
    // see PayLess::TickPlacement), so any view a concurrent query slips in
    // between the two reads is missing from this snapshot and gets
    // re-fetched by the remainder (RowSet dedupes the overlap).
    // Snapshotting coverage after the harvest loses those rows instead —
    // the remainder would treat the region as served even though the
    // harvest never saw it.
    const auto hold_and_buy_remainder =
        [&](const Box& region, const std::vector<semstore::DimSpec>& dims,
            const std::vector<Box>& slabs) -> Status {
      const std::vector<Box> covered =
          store_->CoveredRegions(def.name, config.min_epoch);
      for (const Box& slab : slabs) hold(slab);
      const catalog::DatasetDef* terms =
          router_->TermsFor(access.buy_site, def.dataset);
      semstore::RemainderOptions rem_options = config.remainder;
      rem_options.tuples_per_transaction =
          (terms != nullptr ? terms : catalog_->DatasetOf(def))
              ->tuples_per_transaction;
      const semstore::RemainderResult rem = semstore::GenerateRemainder(
          region, covered, dims,
          [&](const Box& box) { return stats_->EstimateRows(def.name, box); },
          rem_options);
      for (const Box& box : rem.remainder_boxes) {
        Result<market::RestCall> call = market::CallFromRegion(def, box);
        PAYLESS_RETURN_IF_ERROR(call.status());
        calls.push_back(std::move(*call));
      }
      return Status::OK();
    };

    switch (access.kind) {
      case core::AccessSpec::Kind::kEmpty:
        return table;

      case core::AccessSpec::Kind::kLocal: {
        const storage::Table* local = local_db_->FindTable(def.name);
        if (local == nullptr) {
          return Status::NotFound("local table '" + def.name +
                                  "' has no data in the buyer DBMS");
        }
        return *local;
      }

      case core::AccessSpec::Kind::kCached: {
        const std::vector<Row> cached =
            store_->RowsInRegion(def, rel.QueryRegion(), config.min_epoch);
        exec_stats->rows_from_cache += static_cast<int64_t>(cached.size());
        access_span.AddAttr("rows_cached",
                            static_cast<int64_t>(cached.size()));
        for (const Row& row : cached) table.Append(row);
        return table;
      }

      case core::AccessSpec::Kind::kPlain:
        if (config.use_sqr) {
          const Box region = rel.QueryRegion();
          PAYLESS_RETURN_IF_ERROR(hold_and_buy_remainder(
              region, core::Optimizer::DimSpecsFor(def), {region}));
        } else {
          market::RestCall call;
          call.table = def.name;
          call.conditions = rel.conditions;
          calls.push_back(std::move(call));
        }
        break;

      case core::AccessSpec::Kind::kBind: {
        // Binding columns and the placed columns feeding them.
        std::vector<size_t> bind_cols;
        std::vector<sql::BoundColumnRef> feeding;
        for (const sql::JoinEdge& edge : access.bind_edges) {
          const bool own_left = edge.left.rel == access.rel;
          const sql::BoundColumnRef& own = own_left ? edge.left : edge.right;
          const sql::BoundColumnRef& other = own_left ? edge.right : edge.left;
          if (std::find(bind_cols.begin(), bind_cols.end(), own.col) !=
              bind_cols.end()) {
            continue;  // one feeding edge per binding column suffices
          }
          bind_cols.push_back(own.col);
          feeding.push_back(other);
        }
        if (bind_cols.empty()) {
          return Status::Internal("bind access without usable bind edges");
        }

        // Distinct binding combinations from the running join result.
        std::vector<Row> combos;
        {
          std::unordered_set<Row, RowHasher> seen;
          for (size_t r = 0; r < joined.num_rows(); ++r) {
            Row combo;
            combo.reserve(feeding.size());
            bool has_null = false;
            for (const sql::BoundColumnRef& ref : feeding) {
              const Value& v = joined.At(r, ref);
              if (v.is_null()) has_null = true;
              combo.push_back(v);
            }
            if (has_null) continue;  // NULL never joins
            if (seen.insert(combo).second) combos.push_back(std::move(combo));
          }
        }
        access_span.AddAttr("binding_values",
                            static_cast<int64_t>(combos.size()));

        if (config.use_sqr && bind_cols.size() == 1) {
          // Fig. 9 path: the binding values are KNOWN here, so the bind
          // dimension becomes a value-set dimension and remainder generation
          // may merge values into range calls or reuse stored slabs.
          const size_t col = bind_cols[0];
          const catalog::ColumnDef& column = def.columns[col];
          const std::vector<size_t> constrainable = def.ConstrainableColumns();
          const auto dim_it =
              std::find(constrainable.begin(), constrainable.end(), col);
          assert(dim_it != constrainable.end());
          const size_t dim =
              static_cast<size_t>(dim_it - constrainable.begin());

          Box region = rel.QueryRegion();
          std::vector<int64_t> codes;
          for (const Row& combo : combos) {
            const std::optional<int64_t> code = column.domain.Encode(combo[0]);
            // Values outside the published domain cannot exist market-side.
            if (code.has_value() && region.dim(dim).Contains(*code)) {
              codes.push_back(*code);
            }
          }
          std::sort(codes.begin(), codes.end());
          codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
          if (codes.empty()) return table;

          std::vector<semstore::DimSpec> dims =
              core::Optimizer::DimSpecsFor(def);
          dims[dim].mode = semstore::DimSpec::Mode::kValueSet;
          dims[dim].known_values = codes;
          dims[dim].whole_domain_allowed =
              column.binding == catalog::BindingKind::kFree;
          region.dim(dim) = Interval(codes.front(), codes.back());
          std::vector<Box> slabs;
          slabs.reserve(codes.size());
          for (const int64_t code : codes) {
            slabs.push_back(region);
            slabs.back().dim(dim) = Interval::Point(code);
          }
          PAYLESS_RETURN_IF_ERROR(
              hold_and_buy_remainder(region, dims, slabs));
        } else {
          // One point call per binding combination; with SQR on, the store
          // serves every combination it fully covers. Distinct combinations
          // have pairwise-disjoint point regions, so neither the coverage
          // decision nor any call's price depends on the order the calls
          // complete in.
          for (const Row& combo : combos) {
            market::RestCall call;
            call.table = def.name;
            call.conditions = rel.conditions;
            for (size_t c = 0; c < bind_cols.size(); ++c) {
              call.conditions[bind_cols[c]] =
                  market::AttrCondition::Point(combo[c]);
            }
            if (config.use_sqr) {
              const Box point_region = market::CallRegion(def, call);
              if (point_region.empty()) continue;  // outside the domain
              if (store_->Covers(def, point_region, config.min_epoch)) {
                hold(point_region);
                continue;
              }
            }
            calls.push_back(std::move(call));
          }
        }
        break;
      }
    }

    access_span.AddAttr("rows_cached", static_cast<int64_t>(rows.size()));
    access_span.AddAttr("remainder_calls", static_cast<int64_t>(calls.size()));
    PAYLESS_RETURN_IF_ERROR(IssueWithFailover(
        router_, access.buy_site, def.dataset, CallWindow(config),
        std::move(calls), config.deadline, call_obs, &rows, exec_stats));
    for (Row& row : rows.Take()) table.Append(std::move(row));
    return table;
  };

  Result<storage::Table> fetched = fetch();
  // Actuals, kept whether the access succeeded or died mid-flight: what
  // EXPLAIN ANALYZE (and any trace consumer) compares the estimates
  // against. `transactions` here is the spend billed to delivered calls;
  // retries and waste are in the access's spend record (and on the
  // market.get child spans).
  actuals->calls = exec_stats->calls - before.calls;
  actuals->transactions = exec_stats->transactions - before.transactions;
  actuals->rows_from_market =
      exec_stats->rows_from_market - before.rows_from_market;
  access_span.AddAttr("calls", actuals->calls);
  access_span.AddAttr("transactions", actuals->transactions);
  access_span.AddAttr("rows_from_market", actuals->rows_from_market);
  if (fetched.ok()) {
    actuals->rows = static_cast<int64_t>(fetched->num_rows());
    access_span.AddAttr("rows", actuals->rows);
  }
  return fetched;
}

Status ExecutionEngine::Buy(const catalog::TableDef& def,
                            const std::string& buy_site,
                            std::vector<market::RestCall> calls,
                            const ExecConfig& config, ExecStats* exec_stats) {
  return IssueWithFailover(router_, buy_site, def.dataset, CallWindow(config),
                           std::move(calls), config.deadline, config.obs,
                           /*rows=*/nullptr, exec_stats);
}

Result<storage::Table> ExecutionEngine::Execute(
    const sql::BoundQuery& query, const core::Plan& plan,
    const ExecConfig& config, ExecStats* exec_stats,
    std::vector<obs::AccessActuals>* actuals) {
  const size_t n = query.relations.size();
  if (plan.accesses.size() != n) {
    return Status::InvalidArgument("plan covers " +
                                   std::to_string(plan.accesses.size()) +
                                   " of " + std::to_string(n) + " relations");
  }
  std::vector<bool> seen(n, false);
  for (const core::AccessSpec& access : plan.accesses) {
    if (access.rel >= n || seen[access.rel]) {
      return Status::InvalidArgument("plan accesses a relation twice");
    }
    seen[access.rel] = true;
  }
  ExecStats unread_stats;
  if (exec_stats == nullptr) exec_stats = &unread_stats;
  std::vector<obs::AccessActuals> unread_actuals;
  if (actuals == nullptr) actuals = &unread_actuals;
  actuals->assign(plan.accesses.size(), {});

  // Every fetched relation stays alive for the whole query: `joined`
  // indexes into these tables instead of copying their values.
  std::vector<storage::Table> fetched(n);
  JoinedRows joined;

  // Stage decomposition (wall-clock partition): everything FetchRelation
  // does — store reads, remainder generation, market calls — is `fetch`;
  // running-join maintenance is `merge`; the final SELECT/GROUP BY is
  // `local_eval`. These three plus the planner's stages sum to the query's
  // end-to-end latency (small bookkeeping residue aside).
  obs::QueryStageAccumulator* const stages = config.obs.stages;
  for (size_t a = 0; a < plan.accesses.size(); ++a) {
    const core::AccessSpec& access = plan.accesses[a];
    const auto fetch_start = std::chrono::steady_clock::now();
    Result<storage::Table> table = FetchRelation(
        query, access, a, joined, config, exec_stats, &(*actuals)[a]);
    if (stages != nullptr) {
      stages->Add(obs::kStageFetch, StageMicros(fetch_start));
    }
    PAYLESS_RETURN_IF_ERROR(table.status());

    // Extend the running join (it feeds later bind joins).
    const auto merge_start = std::chrono::steady_clock::now();
    fetched[access.rel] = std::move(*table);
    JoinRelation(query, access.rel, fetched[access.rel], &joined);
    if (stages != nullptr) {
      stages->Add(obs::kStageMerge, StageMicros(merge_start));
    }
  }

  // The running join already holds the complete filtered result: finish the
  // SELECT / GROUP BY directly over it instead of re-joining from scratch.
  const auto eval_start = std::chrono::steady_clock::now();
  Result<storage::Table> result = EvaluateJoined(query, joined);
  if (stages != nullptr) {
    stages->Add(obs::kStageLocalEval, StageMicros(eval_start));
  }
  return result;
}

}  // namespace payless::exec
