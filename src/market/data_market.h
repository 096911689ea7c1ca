// In-process simulator of a cloud data market (Windows Azure Data
// Marketplace model, §2): hosts datasets, answers validated REST calls, and
// prices every call by Eq. 1:
//
//     price = p * ceil(number_of_resulting_records / t)
//
// where `t` is the dataset's tuples-per-transaction page size and `p` its
// price per transaction. Joins can NOT be executed market-side (§1); the
// market only filters single tables.
#ifndef PAYLESS_MARKET_DATA_MARKET_H_
#define PAYLESS_MARKET_DATA_MARKET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/status.h"
#include "market/call_obs.h"
#include "market/fault_injector.h"
#include "market/resilience.h"
#include "market/rest_call.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/table.h"

namespace payless::market {

/// Outcome of one GET call.
struct CallResult {
  std::vector<Row> rows;
  int64_t num_records = 0;
  int64_t transactions = 0;
  double price = 0.0;
};

/// Transactions for `records` result records under page size `t` (Eq. 1).
/// An empty result costs zero transactions — pricing is purely size-based.
int64_t TransactionsFor(int64_t records, int64_t tuples_per_transaction);

/// Cumulative seller-side billing, per dataset and total. This is the ground
/// truth the evaluation section plots ("total # of trans."); optimizer
/// estimates never touch it.
///
/// Thread-safe: concurrent queries all bill through one meter, so every
/// member serializes on an internal mutex. Totals are order-independent
/// sums — N concurrent queries bill exactly what they would serially.
class BillingMeter {
 public:
  BillingMeter() = default;
  BillingMeter(const BillingMeter&) = delete;
  BillingMeter& operator=(const BillingMeter&) = delete;

  void Record(const std::string& dataset, int64_t transactions, double price);

  int64_t total_transactions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_transactions_;
  }
  double total_price() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_price_;
  }
  int64_t total_calls() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_calls_;
  }

  int64_t TransactionsFor(const std::string& dataset) const;

  void Reset();

  std::string Report() const;

 private:
  struct PerDataset {
    int64_t transactions = 0;
    double price = 0.0;
    int64_t calls = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, PerDataset> per_dataset_;
  int64_t total_transactions_ = 0;
  double total_price_ = 0.0;
  int64_t total_calls_ = 0;
};

/// The market itself: hosted table data + call evaluation. Datasets are
/// append-only (§2.1); AppendRows models a periodic data release.
///
/// Hosted datasets are SETS of records: duplicate rows are collapsed at
/// hosting/append time. This matches per-record-priced data products (a
/// record is the unit of sale) and makes buyer-side caching exact — a
/// tuple's content identifies it across the semantic store, the mirror
/// tables and fresh call results.
///
/// Each table is hosted exactly once: HostTable takes the rows by move, and
/// set semantics are kept by a hash set of row indices (hashed by the rows
/// they name), not by a second copy of every row. A market built over
/// another one shares its hosted tables (federation endpoints sell the
/// seller's one copy under their own terms); test oracles read the same
/// rows through HostedRows.
///
/// Hosted tables carry simple seller-side indexes (posting lists for point
/// conditions, a sorted projection for numeric ranges) so that the many
/// small calls a bind join issues do not scan whole tables. Execute scans
/// the smallest candidate list the call's conditions offer — the smallest
/// point posting or the narrowest range span, compared by count — and
/// verifies every other condition per row. The result order never depends
/// on that choice: ascending row index whenever a point condition has a
/// posting, span order (value, then row index) for range-only calls, row
/// order for unconstrained ones. This changes nothing observable — it is
/// how a real market serves keyed GETs.
///
/// Thread-safe: Execute/TableSize are read-only and take a shared lock, so
/// concurrent GETs proceed in parallel; HostTable/AppendRows (the periodic
/// data release) take the lock exclusively. Markets that share hosted
/// tables share the lock too.
class DataMarket {
 public:
  explicit DataMarket(const catalog::Catalog* catalog);

  /// Sells `seller`'s hosted tables — shared, not copied, so a later
  /// release into either market reaches both — priced under `catalog`,
  /// whose tables must match the seller's (only dataset terms may differ).
  DataMarket(const catalog::Catalog* catalog, const DataMarket& seller);

  DataMarket(const DataMarket&) = delete;
  DataMarket& operator=(const DataMarket&) = delete;

  /// Hosts `rows` (taken by move, duplicates collapsed) as the market-side
  /// contents of catalog table `name`.
  Status HostTable(const std::string& name, std::vector<Row> rows);

  /// Periodic data release (append-only).
  Status AppendRows(const std::string& name, const std::vector<Row>& rows);

  /// Validates and evaluates a call; prices it by Eq. 1. Does NOT bill —
  /// billing happens at the connector so tests can dry-run the market.
  Result<CallResult> Execute(const RestCall& call) const;

  /// Number of hosted records of one table (the seller-side truth).
  Result<int64_t> TableSize(const std::string& name) const;

  /// Raw seller-side rows, bypassing billing and binding patterns: the
  /// backdoor for reference oracles. Query paths must go through
  /// Execute(). nullptr when the table is not hosted.
  const std::vector<Row>* HostedRows(const std::string& name) const;
  /// Former name of HostedRows, still called by perfbench/.
  const std::vector<Row>* HostedRowsForTesting(const std::string& name) const {
    return HostedRows(name);
  }

  const catalog::Catalog& catalog() const { return *catalog_; }

 private:
  /// Hashes and compares row indices by the content of the rows they name.
  struct RowAt {
    const std::vector<Row>* rows;
    size_t operator()(uint32_t i) const { return HashRow((*rows)[i]); }
    bool operator()(uint32_t a, uint32_t b) const {
      return (*rows)[a] == (*rows)[b];
    }
  };

  /// Sorted (value, row index) projection of one numeric column.
  struct RangeIndex {
    std::vector<std::pair<int64_t, uint32_t>> entries;
    /// False once a non-null value that is not an int64 is hosted: such a
    /// row can match a range yet is missing from `entries`, so the span
    /// may not stand in for a point posting.
    bool complete = true;
  };

  /// Address-stable (held by unique_ptr): `seen` points at `rows`.
  struct HostedTable {
    HostedTable() : seen(0, RowAt{&rows}, RowAt{&rows}) {}
    HostedTable(const HostedTable&) = delete;
    HostedTable& operator=(const HostedTable&) = delete;

    /// Appends `row` unless an identical row is already hosted.
    void Insert(Row row);

    std::vector<Row> rows;
    std::unordered_set<uint32_t, RowAt, RowAt> seen;  // set semantics
    /// column -> value -> row indices, for every constrainable column.
    std::map<size_t, std::unordered_map<Value, std::vector<uint32_t>,
                                        ValueHasher>>
        point_index;
    /// Numeric constrainable columns only.
    std::map<size_t, RangeIndex> range_index;
  };

  void IndexRows(const catalog::TableDef& def, HostedTable* table,
                 size_t first_row) const;

  /// The hosted tables and their lock, shared by every market built over
  /// the same seller.
  struct Shelf {
    mutable std::shared_mutex mutex;  // read-mostly: shared for Execute
    std::map<std::string, std::unique_ptr<HostedTable>> tables;
  };

  const catalog::Catalog* catalog_;
  std::shared_ptr<Shelf> shelf_;
};

class CallScheduler;

/// Observability handles for the CallScheduler. Every member is optional
/// (nullptr = not recorded); all are pre-resolved registry handles so the
/// scheduler's hot path never takes the registry mutex.
struct SchedulerHooks {
  obs::Gauge* queue_depth = nullptr;  // submitted items awaiting admission
  obs::Gauge* in_flight = nullptr;    // items inside an in-flight window
  obs::LatencyHistogram* admission_wait = nullptr;
  /// Coalescing-opportunity meter: calls admitted while a byte-identical
  /// (table, conditions) call was already in flight, and the transactions
  /// a dedup layer would have saved on them.
  obs::Counter* coalescable_calls = nullptr;
  obs::Counter* coalescable_transactions = nullptr;
  obs::FlightRecorder* recorder = nullptr;  // batch-completion events
};

/// The REST boundary between PayLess and the market (step 5.1/5.2 of
/// Fig. 3): the ONLY place where transactions accrue. Listeners observe
/// every DELIVERED call result — exactly once per result that actually
/// reached the buyer (the semantic store and the statistics module
/// subscribe here, steps 5.3/5.4), never for lost responses, so the
/// learning loop cannot double-count across retries.
///
/// Every call is resilient: it consults the attached FaultInjector (if
/// any) to model a flaky marketplace, and recovers per RetryPolicy — capped
/// exponential backoff with jitter, per-call/per-query deadlines, and a
/// per-dataset circuit breaker. The billing contract under faults:
///   - fault before evaluation (transient drop, rate limit, open breaker):
///     nothing billed;
///   - fault after evaluation (lost response): billed on the meter AND
///     counted as wasted spend in RetryStats — the seller evaluated it;
///   - delivered result: billed once, listeners notified once.
///
/// Thread-safe: calls may be issued from any number of threads; the meter
/// locks internally and listener dispatch holds a shared lock (listeners
/// run concurrently with each other and must be thread-safe themselves —
/// the store and stats modules are). AddListener takes the lock
/// exclusively; registering listeners while calls are in flight is legal
/// but the new listener only sees subsequent calls. SetRetryPolicy and
/// SetFaultInjector are setup-time: call them before serving traffic.
class MarketConnector {
 public:
  using Listener = std::function<void(const RestCall&, const CallResult&)>;

  explicit MarketConnector(const DataMarket* market);
  ~MarketConnector();

  /// Issues one GET call, as a one-item scheduler batch: validates,
  /// evaluates, bills, notifies listeners, retrying per the policy.
  /// `deadline` (absolute) is the caller's budget — typically the
  /// enclosing query's; kNoDeadline means unbounded.
  /// `call_obs` (optional) attributes every billed transaction of this call
  /// — delivered or lost in transit — to its tenant in the ledger and to
  /// its purchase's spend record, and records one span per Get (attempts,
  /// retries, waste, billed transactions, outcome) under its parent span,
  /// and a `harvest` span beside it around the listeners.
  Result<CallResult> Get(const RestCall& call,
                         Clock::time_point deadline = kNoDeadline,
                         const CallObs* call_obs = nullptr);

  void AddListener(Listener listener) {
    std::unique_lock<std::shared_mutex> lock(listeners_mutex_);
    listeners_.push_back(std::move(listener));
  }

  /// Installs the retry/deadline/breaker policy (setup-time).
  void SetRetryPolicy(const RetryPolicy& policy) { policy_ = policy; }

  /// Attaches a fault injector (nullptr detaches; caller keeps ownership).
  /// Setup-time relative to in-flight calls of the SAME test phase, but
  /// attach/detach between phases is the intended use.
  void SetFaultInjector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  RetryStats retry_stats() const {
    std::lock_guard<std::mutex> lock(retry_stats_mutex_);
    return retry_stats_;
  }

  /// Breaker state of one dataset (tests / observability).
  CircuitBreakerSet::State breaker_state(const std::string& dataset) const {
    return breakers_.StateOf(dataset);
  }

  /// Delays every attempt by this long, modelling the network round trip
  /// a real marketplace call pays. Off (0) by default. The CallScheduler
  /// lets it elapse as a timer, so the calls of one batch overlap their
  /// round trips instead of paying them back to back.
  void SetSimulatedLatencyMicros(int64_t micros) {
    simulated_latency_micros_.store(micros, std::memory_order_relaxed);
  }

  /// Federation: names the market endpoint this connector bills against,
  /// so every ledger record carries its buy-site. Setup-time; "" (default)
  /// = single-market deployment.
  void SetMarketLabel(std::string label) { market_label_ = std::move(label); }
  const std::string& market_label() const { return market_label_; }

  /// Latency instrumentation handles, both optional. Setup-time: bind
  /// before serving traffic. `rtt` sees every attempt's round trip (tagged
  /// per endpoint by giving each connector its own handle); `backoff` sees
  /// every retry sleep the connector schedules.
  struct LatencyHooks {
    obs::LatencyHistogram* rtt = nullptr;
    obs::LatencyHistogram* backoff = nullptr;
  };
  void BindLatency(const LatencyHooks& hooks) { latency_ = hooks; }

  /// Observability handles the CallScheduler records through. Setup-time:
  /// bind before serving traffic.
  void SetSchedulerHooks(const SchedulerHooks& hooks) {
    scheduler_hooks_ = hooks;
  }

  const BillingMeter& meter() const { return meter_; }
  BillingMeter* mutable_meter() { return &meter_; }

  const DataMarket& market() const { return *market_; }

  /// The connector's call scheduler: every call, Get included, runs
  /// through it on the calling thread. Never null; owned by the connector.
  CallScheduler* scheduler() { return scheduler_.get(); }

 private:
  friend class CallScheduler;

  /// One in-flight GET's retry state machine. The CallScheduler drives it
  /// as BeginCall -> [BeginAttempt -> <delay> -> CompleteAttempt ->
  /// <delay>]* until `done`; each phase may finish the call early
  /// (deadline, breaker, terminal market error, delivery). Billing,
  /// listener dispatch, breaker and retry-stats updates all happen inside
  /// the phases.
  struct CallTask {
    const RestCall* call = nullptr;  // not owned; must outlive the task
    Clock::time_point deadline = kNoDeadline;  // caller's budget
    const CallObs* call_obs = nullptr;

    bool done = false;
    Result<CallResult> outcome = Status::Internal("call not finished");

    const catalog::TableDef* def = nullptr;
    std::string dataset;
    Clock::time_point effective = kNoDeadline;
    int attempt = 0;
    int max_attempts = 1;
    Clock::time_point attempt_start = kNoDeadline;  // RTT measurement
    int64_t backoff = 0;
    uint64_t jitter_state = 0;  // per-call splitmix64 stream, lock-free
    FaultDecision fault;
    Status last_error = Status::OK();
    // Span bookkeeping, flushed when the call finishes.
    obs::Trace* trace = nullptr;
    uint64_t span_id = 0;
    int64_t span_attempts = 0;
    int64_t retries = 0;  // attempts beyond the first
    int64_t billed_transactions = 0;
    int64_t wasted_transactions = 0;
    const char* outcome_label = "ok";
  };

  /// Resolves the table, opens the span, applies the per-call timeout and
  /// breaker admission. May finish the task (unknown table, open breaker).
  void BeginCall(CallTask* task);

  /// Starts the next attempt: accounting plus the fault decision. Returns
  /// the simulated network delay (round trip + injected latency spike) the
  /// scheduler must let elapse before CompleteAttempt. May finish the task
  /// (deadline already elapsed).
  int64_t BeginAttempt(CallTask* task);

  /// Evaluates / bills / delivers the attempt, or arranges a retry:
  /// returns the backoff delay to elapse before the next BeginAttempt.
  /// Finishes the task on delivery and on every terminal failure.
  int64_t CompleteAttempt(CallTask* task);

  /// Jittered capped exponential backoff before the next attempt, honoring
  /// a rate-limit retry-after hint. `backoff` is the current unjittered
  /// step and is advanced in place; `jitter_state` is the call's private
  /// splitmix64 stream (no shared RNG, no lock).
  int64_t NextDelayMicros(int64_t* backoff, int64_t retry_after_micros,
                          uint64_t* jitter_state);

  /// Finishes a task: records the outcome, adds its retries to the spend
  /// record, flushes and closes its span.
  static void Finish(CallTask* task, Result<CallResult> outcome,
                     const char* label);

  const DataMarket* market_;
  std::string market_label_;
  BillingMeter meter_;
  mutable std::shared_mutex listeners_mutex_;
  std::vector<Listener> listeners_;
  std::atomic<int64_t> simulated_latency_micros_{0};
  RetryPolicy policy_;
  std::atomic<FaultInjector*> injector_{nullptr};
  CircuitBreakerSet breakers_;
  mutable std::mutex retry_stats_mutex_;
  RetryStats retry_stats_;
  /// Distinguishes concurrent calls' jitter streams (seed ^ sequence).
  std::atomic<uint64_t> jitter_sequence_{0};
  LatencyHooks latency_;
  SchedulerHooks scheduler_hooks_;
  std::unique_ptr<CallScheduler> scheduler_;
};

}  // namespace payless::market

#endif  // PAYLESS_MARKET_DATA_MARKET_H_
