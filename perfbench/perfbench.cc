// PayLess end-to-end benchmark: money, throughput and tail latency of the
// public entry point exec::PayLess.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced passes with passes that turn on the existing
// per-query spans, and reports the per-layer metrics: span self times,
// benchmark-timed calls of each layer's public functions, layer counters,
// and the tracing overhead (untraced minus traced qps).
//
// Every run checks, outside the timed region, each distinct query
// instance's rows against the reference oracle and every client's cost
// ledger against its billing meter; a mismatch counts as a failed
// operation and the exit code is non-zero. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "core/optimizer.h"
#include "exec/local_eval.h"
#include "exec/payless.h"
#include "exec/reference.h"
#include "obs/latency.h"
#include "sql/bound_query.h"
#include "sql/parser.h"
#include "workload/bundle.h"

namespace payless::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// ---------------------------------------------------------------------------
// Workloads (NOTES.md gives the reason for each).

enum class DataKind { kReal, kTpchSkew };

struct Workload {
  const char* name;
  DataKind data;
  /// Each pass runs on a freshly constructed client (empty store, stats and
  /// plan cache); otherwise one client is warmed during set-up and every
  /// pass replays against it.
  bool cold;
  int threads;     // closed-loop callers sharing one client
  int64_t rtt_us;  // simulated market round trip per call
  /// Passes draw instances Zipf(1)-skewed within each template from the
  /// pool; otherwise a pass replays the pool in its shuffled order.
  bool zipf;
};

// The data, the instances and their order are the same for every seed (the
// generators' default data seeds, and bench_fig10's instance seed); the
// benchmark seed draws serve_overlap's callers' ranks. Seeded instance sets
// and seeded arrival orders moved qps, p99 latency or spend by more than
// any bound could hold from seed to seed (NOTES.md).
constexpr uint64_t kInstanceSeed = 1;
// The Fig. 10a real workload at 10% scale: 200 instances per template.
constexpr double kRealScale = 0.1;
constexpr size_t kRealPerTemplate = 200;
// real_warm: every kTrickleEvery-th replayed query is an instance the
// client has never seen, drawn from a held-out pool, so a warm pass still
// buys something: the marginal cost of new queries against a warm store.
constexpr size_t kTrickleEvery = 25;
constexpr size_t kRealHeldOutPerTemplate = 80;
// tpch_skew_cold (runnable, not in the measured set: see NOTES.md).
constexpr double kTpchScaleFactor = 0.002;
constexpr size_t kTpchPerTemplate = 20;
// serve_overlap: per pass, every caller issues this many draws, each a
// uniformly chosen template and a Zipf(1)-ranked instance of it.
constexpr int64_t kOverlapQueriesPerThread = 1000;
// Warm-up cap for real_warm; set-up normally stops earlier, once a pass
// bills nothing and the plan-cache hit ratio stopped rising.
constexpr int kMaxWarmPasses = 8;
constexpr int kSetupRepeats = 3;
constexpr int kCheckThreads = 4;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"real_cold", DataKind::kReal, true, 1, 0, false},
      {"real_warm", DataKind::kReal, false, 1, 0, false},
      {"serve_overlap", DataKind::kReal, true, 4, 2000, true},
      {"tpch_skew_cold", DataKind::kTpchSkew, true, 1, 0, false},
  };
  return kWorkloads;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return common::SplitMix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

/// Generated inputs of one run: the hosted market and the instances.
/// bundle->queries[0, pool_size) is the pool the passes draw from; the
/// rest (real_warm only) is held out for the trickle of new queries.
struct Inputs {
  std::unique_ptr<workload::Bundle> bundle;
  size_t pool_size = 0;
};

Inputs MakeInputs(const Workload& w) {
  Inputs in;
  if (w.data == DataKind::kReal) {
    workload::RealDataOptions options;
    options.scale = kRealScale;
    const size_t held_out = w.cold ? 0 : kRealHeldOutPerTemplate;
    in.bundle = workload::MakeRealBundle(options, kRealPerTemplate + held_out,
                                         kInstanceSeed);
    in.pool_size = kRealPerTemplate * workload::RealTemplates().size();
  } else {
    workload::TpchOptions options;
    options.scale_factor = kTpchScaleFactor;
    options.zipf = 1.0;
    in.bundle = workload::MakeTpchBundle(options, kTpchPerTemplate,
                                         kInstanceSeed);
    in.pool_size = in.bundle->queries.size();
  }
  return in;
}

std::unique_ptr<exec::PayLess> NewClient(const Workload& w, const Inputs& in,
                                         bool traced) {
  exec::PayLessConfig config = workload::PayLessFullConfig();
  config.enable_tracing = traced;
  auto client = workload::NewPayLessClient(*in.bundle, config);
  client->connector()->SetSimulatedLatencyMicros(w.rtt_us);
  return client;
}

/// Per-caller instance sequences of one pass. Deterministic in the seed:
/// every pass of a run issues the same sequences, except that real_warm's
/// trickle advances `*held_out_cursor` through the held-out instances.
std::vector<std::vector<size_t>> PassSequences(const Workload& w,
                                               const Inputs& in, uint64_t seed,
                                               size_t* held_out_cursor) {
  std::vector<std::vector<size_t>> seqs(static_cast<size_t>(w.threads));
  if (w.zipf) {
    // The template mix stays uniform and the ranks follow the pool's fixed
    // order, so the seed moves only the sequence of draws.
    std::vector<std::vector<size_t>> by_template;
    for (size_t i = 0; i < in.pool_size; ++i) {
      const size_t t = in.bundle->queries[i].template_id;
      if (by_template.size() <= t) by_template.resize(t + 1);
      by_template[t].push_back(i);
    }
    const ZipfDistribution zipf(
        static_cast<int64_t>(by_template.front().size()), 1.0);
    for (size_t c = 0; c < seqs.size(); ++c) {
      Rng rng(SubSeed(seed, 100 + c));
      for (int64_t i = 0; i < kOverlapQueriesPerThread; ++i) {
        const std::vector<size_t>& ids = by_template[rng.Index(by_template.size())];
        const int64_t rank = std::min<int64_t>(zipf.Sample(&rng),
                                               static_cast<int64_t>(ids.size()));
        seqs[c].push_back(ids[static_cast<size_t>(rank - 1)]);
      }
    }
    return seqs;
  }
  const size_t held_out = in.bundle->queries.size() - in.pool_size;
  for (size_t i = 0; i < in.pool_size; ++i) {
    seqs[0].push_back(i);
    if (held_out > 0 && (i + 1) % kTrickleEvery == 0) {
      seqs[0].push_back(in.pool_size + (*held_out_cursor)++ % held_out);
    }
  }
  return seqs;
}

// ---------------------------------------------------------------------------
// Correctness.

/// The oracle of exec::ReferenceEvaluate: EvaluateLocally over the
/// seller-side truth, bypassing billing, binding patterns, the store and
/// the optimizer. The one difference: instead of a full copy of every
/// hosted table per instance, EvaluateLocally gets the rows that a sorted
/// per-column index admits for the relation's narrowest literal condition.
/// EvaluateLocally takes any superset of the qualifying rows and re-applies
/// every condition itself, so the result is the same, at a fraction of the
/// cost (NOTES.md has the numbers).
class ReferenceOracle {
 public:
  ReferenceOracle(const workload::Bundle& bundle,
                  const storage::Database& local_db)
      : bundle_(bundle), local_db_(local_db) {}

  /// Thread-safe.
  Result<storage::Table> Evaluate(const workload::QueryInstance& q) {
    Result<sql::SelectStmt> stmt = sql::Parse(q.sql);
    PAYLESS_RETURN_IF_ERROR(stmt.status());
    Result<sql::BoundQuery> bound = sql::Bind(*stmt, bundle_.catalog, q.params);
    PAYLESS_RETURN_IF_ERROR(bound.status());
    std::vector<storage::Table> rel_tables;
    for (const sql::BoundRelation& rel : bound->relations) {
      if (rel.always_empty) {  // rare; take the unindexed path verbatim
        return exec::ReferenceEvaluate(bundle_.catalog, *bundle_.market,
                                       local_db_, q.sql, q.params);
      }
      const std::vector<Row>* rows = HostedRows(*rel.def);
      if (rows == nullptr) {
        return Status::NotFound("no rows for '" + rel.def->name + "'");
      }
      storage::Table table(storage::SchemaFromTableDef(*rel.def));
      AppendCandidates(*rel.def, rel.conditions, *rows, &table);
      rel_tables.push_back(std::move(table));
    }
    return exec::EvaluateLocally(*bound, rel_tables);
  }

 private:
  const std::vector<Row>* HostedRows(const catalog::TableDef& def) const {
    if (!def.is_local) return bundle_.market->HostedRowsForTesting(def.name);
    const storage::Table* local = local_db_.FindTable(def.name);
    return local == nullptr ? nullptr : &local->rows();
  }

  /// Appends the rows inside the narrowest single-column condition (every
  /// row when the relation has none).
  void AppendCandidates(const catalog::TableDef& def,
                        const std::vector<market::AttrCondition>& conditions,
                        const std::vector<Row>& rows, storage::Table* out) {
    using It = std::vector<uint32_t>::const_iterator;
    std::optional<std::pair<It, It>> best;
    for (size_t col = 0; col < conditions.size(); ++col) {
      const market::AttrCondition& c = conditions[col];
      if (c.is_none()) continue;
      const bool point = c.kind == market::AttrCondition::Kind::kPoint;
      const Value lo = point ? c.point : Value(c.range.lo);
      const Value hi = point ? c.point : Value(c.range.hi);
      const std::vector<uint32_t>& index = SortedIndex(def.name, col, rows);
      const It first = std::lower_bound(
          index.begin(), index.end(), lo,
          [&](uint32_t id, const Value& v) { return rows[id][col] < v; });
      const It last = std::upper_bound(
          first, index.end(), hi,
          [&](const Value& v, uint32_t id) { return v < rows[id][col]; });
      if (!best || last - first < best->second - best->first) {
        best = std::pair{first, last};
      }
    }
    if (!best) {
      for (const Row& row : rows) out->Append(row);
      return;
    }
    for (It it = best->first; it != best->second; ++it) out->Append(rows[*it]);
  }

  /// Built on first use. Map nodes are stable, so the returned reference
  /// stays valid while other threads add indexes.
  const std::vector<uint32_t>& SortedIndex(const std::string& table, size_t col,
                                           const std::vector<Row>& rows) {
    std::lock_guard<std::mutex> lock(indexes_mutex_);
    std::vector<uint32_t>& index = indexes_[{table, col}];
    if (index.empty() && !rows.empty()) {
      index.resize(rows.size());
      for (uint32_t i = 0; i < index.size(); ++i) index[i] = i;
      std::stable_sort(index.begin(), index.end(), [&](uint32_t a, uint32_t b) {
        return rows[a][col] < rows[b][col];
      });
    }
    return index;
  }

  const workload::Bundle& bundle_;
  const storage::Database& local_db_;
  std::mutex indexes_mutex_;
  std::map<std::pair<std::string, size_t>, std::vector<uint32_t>> indexes_;
};

/// Checks results against the reference oracle. A pass hands over the
/// first result of every instance it is the first to run; VerifyPending
/// compares them after the pass and releases them, so no result outlives
/// its pass (retained results fragmented the heap and slowed later passes
/// by up to 15%). Repeats must return the first occurrence's row count.
class ResultChecker {
 public:
  ResultChecker(const workload::Bundle& bundle,
                const storage::Database& local_db)
      : bundle_(bundle),
        oracle_(bundle, local_db),
        expected_rows_(bundle.queries.size()),
        pending_(bundle.queries.size()) {
    for (std::atomic<int64_t>& rows : expected_rows_) rows.store(-1);
  }

  /// Thread-safe. False when a repeat disagrees with the first occurrence.
  bool Observe(size_t instance, storage::Table* result) {
    const int64_t rows = static_cast<int64_t>(result->num_rows());
    int64_t expected = -1;
    if (expected_rows_[instance].compare_exchange_strong(expected, rows)) {
      pending_[instance] = std::move(*result);
      return true;
    }
    return expected == rows;
  }

  /// After every caller of a pass joined: compares the pending results with
  /// the oracle and releases them. Returns the number of mismatches.
  int64_t VerifyPending() {
    std::atomic<size_t> next{0};
    std::atomic<int64_t> mismatches{0}, verified{0};
    const auto check = [&] {
      for (size_t i = next++; i < pending_.size(); i = next++) {
        if (!pending_[i].has_value()) continue;
        ++verified;
        const workload::QueryInstance& q = bundle_.queries[i];
        const Result<storage::Table> expected = oracle_.Evaluate(q);
        if (!expected.ok() || !exec::SameResult(*expected, *pending_[i])) {
          std::fprintf(stderr, "result mismatch on instance %zu: %s\n", i,
                       q.sql.c_str());
          ++mismatches;
        }
        pending_[i].reset();
      }
    };
    std::vector<std::thread> checkers;
    for (int t = 0; t < kCheckThreads; ++t) checkers.emplace_back(check);
    for (std::thread& t : checkers) t.join();
    checked_ += verified;
    return mismatches;
  }

  int64_t checked() const { return checked_; }

 private:
  const workload::Bundle& bundle_;
  ReferenceOracle oracle_;
  std::vector<std::atomic<int64_t>> expected_rows_;
  std::vector<std::optional<storage::Table>> pending_;
  int64_t checked_ = 0;
};

bool LedgerMatchesMeter(const exec::PayLess& client) {
  return client.observability().ledger.total_transactions() ==
         client.meter().total_transactions();
}

// ---------------------------------------------------------------------------
// Span analysis (traced passes).

using Span = std::pair<int64_t, int64_t>;  // [start, end) in micros

Span Interval(const obs::SpanRecord& span) {
  return {span.start_micros, span.start_micros + span.duration_micros};
}

/// Length of the part of [lo, hi) covered by the union of `intervals`.
int64_t Coverage(std::vector<Span> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Self time of every closed span whose name starts with `prefix`: its
/// duration minus the part of it its children cover.
std::vector<int64_t> SelfTimes(const std::vector<obs::SpanRecord>& spans,
                               const std::string& prefix) {
  std::vector<int64_t> out;
  for (const obs::SpanRecord& span : spans) {
    if (!span.closed() || span.name.rfind(prefix, 0) != 0) continue;
    std::vector<Span> children;
    for (const obs::SpanRecord& child : spans) {
      if (child.parent == span.id && child.closed()) {
        children.push_back(Interval(child));
      }
    }
    const auto [lo, hi] = Interval(span);
    out.push_back(span.duration_micros - Coverage(children, lo, hi));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Measurement.

/// What callers observed query by query: counts from the QueryReports and,
/// on traced passes, timing samples.
struct QueryStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  double busy_us = 0;  // time inside QueryWithReport
  std::vector<double> latency_us;  // completed queries
  int64_t evaluated_plans = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t calls = 0;
  int64_t transactions = 0;
  int64_t rows_from_market = 0;
  int64_t rows_from_cache = 0;
  int64_t result_rows = 0;
  // Traced passes only.
  std::vector<double> parse_bind_us, optimize_us, market_get_us;
  std::vector<double> execute_self_us, access_self_us;
  int64_t market_wait_us = 0;  // union of a query's market.get spans
  int64_t fetch_us = 0;        // the fetch stage's wall time

  void Merge(const QueryStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    busy_us += o.busy_us;
    evaluated_plans += o.evaluated_plans;
    plan_cache_hits += o.plan_cache_hits;
    plan_cache_misses += o.plan_cache_misses;
    calls += o.calls;
    transactions += o.transactions;
    rows_from_market += o.rows_from_market;
    rows_from_cache += o.rows_from_cache;
    result_rows += o.result_rows;
    market_wait_us += o.market_wait_us;
    fetch_us += o.fetch_us;
    for (auto [dst, src] : {std::pair{&latency_us, &o.latency_us},
                            std::pair{&parse_bind_us, &o.parse_bind_us},
                            std::pair{&optimize_us, &o.optimize_us},
                            std::pair{&market_get_us, &o.market_get_us},
                            std::pair{&execute_self_us, &o.execute_self_us},
                            std::pair{&access_self_us, &o.access_self_us}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
  }
};

/// One kind of pass (untraced or traced) over a run: the callers' stats
/// plus what the client's own always-on counters moved by.
struct PhaseStats {
  QueryStats q;
  int64_t passes = 0;
  std::vector<double> pass_qps;  // completed / pass wall time
  /// completed / mean per-caller time inside QueryWithReport, which leaves
  /// out the traced passes' benchmark-timed calls.
  std::vector<double> pass_busy_qps;
  /// Per-pass latency percentiles; every pass has at least 1000 queries.
  std::vector<double> pass_p50_us, pass_p99_us;
  int64_t billed = 0;  // billing-meter delta
  int64_t store_probes = 0;
  int64_t store_hits = 0;
  int64_t coalescable_tx = 0;
  int64_t drift_ticks = 0;
  double qerror_sum = 0;
  int64_t qerror_samples = 0;
  std::vector<double> store_views, store_rows, store_bytes;  // at pass end
};

/// Market tables' q-error totals (sum, samples) over the client's life.
std::pair<double, int64_t> QErrorTotals(const exec::PayLess& client) {
  double sum = 0;
  int64_t samples = 0;
  for (const std::string& table : client.catalog().TableNames()) {
    const catalog::TableDef* def = client.catalog().FindTable(table);
    if (def == nullptr || def->is_local) continue;
    const obs::AccuracySnapshot snap = client.accuracy().Snapshot(table);
    sum += snap.sum_qerror;
    samples += static_cast<int64_t>(snap.samples);
  }
  return {sum, samples};
}

/// The traced passes' benchmark-timed calls: sql::Parse + sql::Bind, and
/// core::Optimizer::Optimize on the client's live store and statistics
/// just before the client runs the same query.
void TimePublicCalls(const exec::PayLess& client,
                     const workload::QueryInstance& q, QueryStats* qs) {
  const auto t0 = Clock::now();
  Result<sql::SelectStmt> stmt = sql::Parse(q.sql);
  if (!stmt.ok()) return;
  Result<sql::BoundQuery> bound = sql::Bind(*stmt, client.catalog(), q.params);
  const auto t1 = Clock::now();
  if (!bound.ok()) return;
  qs->parse_bind_us.push_back(MicrosBetween(t0, t1));
  const core::Optimizer optimizer(&client.catalog(), &client.stats(),
                                  &client.store(), client.config().optimizer);
  if (optimizer.Optimize(*bound).ok()) {
    qs->optimize_us.push_back(MicrosBetween(t1, Clock::now()));
  }
}

void AnalyzeTrace(const exec::QueryReport& report, QueryStats* qs) {
  const std::vector<obs::SpanRecord>& spans = report.trace;
  for (const int64_t us : SelfTimes(spans, "execute")) {
    qs->execute_self_us.push_back(static_cast<double>(us));
  }
  int64_t access_self = 0;
  for (const int64_t us : SelfTimes(spans, "access:")) access_self += us;
  qs->access_self_us.push_back(static_cast<double>(access_self));
  std::vector<Span> gets;
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "market.get" || !span.closed()) continue;
    qs->market_get_us.push_back(static_cast<double>(span.duration_micros));
    gets.push_back(Interval(span));
    lo = std::min(lo, gets.back().first);
    hi = std::max(hi, gets.back().second);
  }
  if (!gets.empty()) qs->market_wait_us += Coverage(gets, lo, hi);
  qs->fetch_us += report.stage_micros[obs::kStageFetch];
}

/// One closed-loop caller: issues `seq` back to back.
void RunCaller(exec::PayLess* client, const Inputs& in,
               const std::vector<size_t>& seq, bool traced,
               ResultChecker* checker, QueryStats* qs) {
  for (const size_t instance : seq) {
    const workload::QueryInstance& q = in.bundle->queries[instance];
    if (traced) TimePublicCalls(*client, q, qs);
    const auto t0 = Clock::now();
    Result<exec::QueryReport> report = client->QueryWithReport(q.sql, q.params);
    const double us = MicrosBetween(t0, Clock::now());
    ++qs->attempted;
    qs->busy_us += us;
    if (!report.ok() || !report->ok()) {
      ++qs->failed;
      continue;
    }
    qs->latency_us.push_back(us);
    qs->evaluated_plans +=
        static_cast<int64_t>(report->counters.evaluated_plans);
    qs->plan_cache_hits +=
        static_cast<int64_t>(report->counters.plan_cache_hits);
    qs->plan_cache_misses +=
        static_cast<int64_t>(report->counters.plan_cache_misses);
    qs->calls += report->exec.calls;
    qs->transactions += report->exec.transactions;
    qs->rows_from_market += report->exec.rows_from_market;
    qs->rows_from_cache += report->exec.rows_from_cache;
    qs->result_rows += static_cast<int64_t>(report->result.num_rows());
    if (traced) AnalyzeTrace(*report, qs);
    if (!checker->Observe(instance, &report->result)) ++qs->failed;
  }
}

int64_t CoalescableTx(exec::PayLess* client) {
  return client->observability()
      ->metrics.GetCounter("payless_coalescable_transactions_total")
      ->value();
}

/// Runs one pass on `client`: one closed-loop caller per sequence.
void RunPass(exec::PayLess* client, const Inputs& in,
             const std::vector<std::vector<size_t>>& seqs, bool traced,
             ResultChecker* checker, PhaseStats* ps) {
  const int64_t billed0 = client->meter().total_transactions();
  const int64_t probes0 = client->store().TotalProbes();
  const int64_t hits0 = client->store().TotalHits();
  const int64_t coalescable0 = CoalescableTx(client);
  const uint64_t drift0 = client->accuracy().drift_epoch();
  const auto [qsum0, qn0] = QErrorTotals(*client);

  std::vector<QueryStats> callers(seqs.size());
  const auto start = Clock::now();
  if (seqs.size() == 1) {
    RunCaller(client, in, seqs[0], traced, checker, &callers[0]);
  } else {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < seqs.size(); ++t) {
      threads.emplace_back(RunCaller, client, std::cref(in),
                           std::cref(seqs[t]), traced, checker, &callers[t]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = SecondsSince(start);

  QueryStats pass;
  for (const QueryStats& qs : callers) pass.Merge(qs);
  const double completed = static_cast<double>(pass.latency_us.size());
  ++ps->passes;
  if (completed > 0) {
    ps->pass_qps.push_back(completed / wall_s);
    ps->pass_busy_qps.push_back(
        completed / (pass.busy_us / 1e6 / static_cast<double>(seqs.size())));
    ps->pass_p50_us.push_back(Percentile(pass.latency_us, 0.5));
    ps->pass_p99_us.push_back(Percentile(pass.latency_us, 0.99));
  }
  ps->q.Merge(pass);
  ps->billed += client->meter().total_transactions() - billed0;
  ps->store_probes += client->store().TotalProbes() - probes0;
  ps->store_hits += client->store().TotalHits() - hits0;
  ps->coalescable_tx += CoalescableTx(client) - coalescable0;
  ps->drift_ticks +=
      static_cast<int64_t>(client->accuracy().drift_epoch() - drift0);
  const auto [qsum1, qn1] = QErrorTotals(*client);
  ps->qerror_sum += qsum1 - qsum0;
  ps->qerror_samples += qn1 - qn0;
  size_t views = 0, rows = 0;
  int64_t bytes = 0;
  for (const semstore::StoreTableStats& s : client->store().SnapshotStats()) {
    views += s.views;
    rows += s.pooled_rows;
    bytes += s.approx_bytes;
  }
  ps->store_views.push_back(static_cast<double>(views));
  ps->store_rows.push_back(static_cast<double>(rows));
  ps->store_bytes.push_back(static_cast<double>(bytes));
}

/// Warms `client` for real_warm: replays the pool until a whole pass bills
/// nothing and the plan-cache hit ratio stopped rising.
void WarmUp(exec::PayLess* client, const Inputs& in) {
  double last_hit_ratio = -1;
  for (int pass = 0; pass < kMaxWarmPasses; ++pass) {
    const int64_t billed0 = client->meter().total_transactions();
    int64_t hits = 0, lookups = 0;
    for (size_t i = 0; i < in.pool_size; ++i) {
      const workload::QueryInstance& q = in.bundle->queries[i];
      Result<exec::QueryReport> report =
          client->QueryWithReport(q.sql, q.params);
      if (!report.ok()) continue;
      hits += static_cast<int64_t>(report->counters.plan_cache_hits);
      lookups += static_cast<int64_t>(report->counters.plan_cache_hits +
                                      report->counters.plan_cache_misses);
    }
    const double hit_ratio =
        Ratio(static_cast<double>(hits), static_cast<double>(lookups));
    const bool billed_nothing =
        client->meter().total_transactions() == billed0;
    if (billed_nothing && hit_ratio <= last_hit_ratio) return;
    last_hit_ratio = hit_ratio;
  }
}

/// Everything the passes need: the generated inputs and, for real_warm,
/// the warmed clients (untraced, and traced when asked).
struct Setup {
  Inputs inputs;
  std::unique_ptr<exec::PayLess> warm_client;
  std::unique_ptr<exec::PayLess> warm_traced_client;
};

/// Data generation, market hosting and client construction; real_warm's
/// warm-up is the separate WarmUp.
Setup DoSetup(const Workload& w, bool with_traced) {
  Setup s;
  s.inputs = MakeInputs(w);
  // Cold passes construct their own clients; construct one here too, so
  // set-up time covers client construction on every workload.
  s.warm_client = NewClient(w, s.inputs, /*traced=*/false);
  if (!w.cold && with_traced) {
    s.warm_traced_client = NewClient(w, s.inputs, /*traced=*/true);
  }
  return s;
}

/// Runs passes until `seconds` of pass wall time elapsed, checking each
/// pass's results after it. With `traced` non-null, untraced and traced
/// passes alternate (so drift over the run hits both alike) until each kind
/// has had half of `seconds`. Returns the number of failed checks: result
/// mismatches, and clients whose ledger disagreed with their meter.
int64_t RunPasses(const Workload& w, Setup* setup, uint64_t seed,
                  double seconds, ResultChecker* checker, PhaseStats* untraced,
                  PhaseStats* traced) {
  int64_t failed_checks = 0;
  size_t held_out_cursor[2] = {0, 0};
  double elapsed[2] = {0, 0};
  const double budget = traced == nullptr ? seconds : seconds / 2;
  for (int64_t pass = 0;; ++pass) {
    if (elapsed[0] >= budget && (traced == nullptr || elapsed[1] >= budget)) {
      break;
    }
    const int kind = traced == nullptr ? 0 : static_cast<int>(pass % 2);
    const bool trace_on = kind == 1;
    const std::vector<std::vector<size_t>> seqs =
        PassSequences(w, setup->inputs, seed, &held_out_cursor[kind]);
    std::unique_ptr<exec::PayLess> fresh;
    exec::PayLess* client = trace_on ? setup->warm_traced_client.get()
                                     : setup->warm_client.get();
    if (w.cold) {
      fresh = NewClient(w, setup->inputs, trace_on);
      client = fresh.get();
    }
    const auto start = Clock::now();
    RunPass(client, setup->inputs, seqs, trace_on, checker,
            trace_on ? traced : untraced);
    elapsed[kind] += SecondsSince(start);
    if (!LedgerMatchesMeter(*client)) {
      std::fprintf(stderr, "cost ledger and billing meter disagree\n");
      ++failed_checks;
    }
    failed_checks += checker->VerifyPending();
  }
  return failed_checks;
}

// ---------------------------------------------------------------------------
// Reporting.

/// The highest of p99.9/p99/p90 with at least ten samples beyond it (p50
/// when even p90 has fewer).
double SupportedTail(size_t n) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1 - q) >= 10) return q;
  }
  return 0.5;
}

/// Prints a timing sample as its median plus the highest percentile the
/// sample supports, with the sample count.
void Describe(const std::string& name, const std::vector<double>& v,
              const std::string& unit) {
  const double q = SupportedTail(v.size());
  std::printf("# %s: median %.3f %s, p%g %.3f %s, n=%zu\n", name.c_str(),
              Median(v), unit.c_str(), q * 100, Percentile(v, q), unit.c_str(),
              v.size());
}

/// Prints each metric as a line and collects the result JSON.
class MetricsOut {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }

  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

void AddEndToEnd(const PhaseStats& u, double setup_s, double peak_rss_mib,
                 MetricsOut* out) {
  std::vector<double> latency_ms;
  for (const double us : u.q.latency_us) latency_ms.push_back(us / 1000);
  Describe("latency", latency_ms, "ms");
  std::printf("# qps per pass:");
  for (const double qps : u.pass_qps) std::printf(" %.1f", qps);
  std::printf("\n");
  out->Add("spend_per_query",
           Ratio(static_cast<double>(u.billed),
                 static_cast<double>(latency_ms.size())),
           "tx/query");
  out->Add("qps", Median(u.pass_qps), "queries/s");
  out->Add("latency_p50_ms", Median(u.pass_p50_us) / 1000, "ms");
  out->Add("latency_p99_ms", Median(u.pass_p99_us) / 1000, "ms");
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mb", peak_rss_mib, "MiB");
}

/// Counters come from the untraced passes (the traced passes' own
/// optimizer calls would add store probes); timings from the traced ones.
void AddPerLayer(const PhaseStats& u, const PhaseStats& t, MetricsOut* out) {
  const QueryStats& uq = u.q;
  const QueryStats& tq = t.q;
  const double completed = static_cast<double>(uq.latency_us.size());
  const auto per_query = [&](int64_t count) {
    return Ratio(static_cast<double>(count), completed);
  };
  Describe("sql.parse_bind_us", tq.parse_bind_us, "us");
  Describe("core.optimize_us", tq.optimize_us, "us");
  Describe("market.get_us", tq.market_get_us, "us");
  Describe("exec.execute_self_us", tq.execute_self_us, "us");
  Describe("exec.access_self_us", tq.access_self_us, "us");
  const double qps_untraced = Median(u.pass_busy_qps);
  const double qps_traced = Median(t.pass_busy_qps);
  std::printf("# tracing: untraced %.1f qps (%lld passes), traced %.1f qps "
              "(%lld passes)\n",
              qps_untraced, static_cast<long long>(u.passes), qps_traced,
              static_cast<long long>(t.passes));

  out->Add("sql.parse_bind_us_p50", Median(tq.parse_bind_us), "us");
  out->Add("core.optimize_us_p50", Median(tq.optimize_us), "us");
  out->Add("core.optimize_us_p99", Percentile(tq.optimize_us, 0.99), "us");
  out->Add("core.evaluated_plans_per_query", per_query(uq.evaluated_plans),
           "count");
  out->Add("core.plan_cache_hit_ratio",
           Ratio(static_cast<double>(uq.plan_cache_hits),
                 static_cast<double>(uq.plan_cache_hits +
                                     uq.plan_cache_misses)),
           "ratio");
  out->Add("stats.qerror_mean",
           Ratio(u.qerror_sum, static_cast<double>(u.qerror_samples)),
           "ratio");
  out->Add("stats.drift_ticks_per_pass",
           Ratio(static_cast<double>(u.drift_ticks),
                 static_cast<double>(u.passes)),
           "count");
  out->Add("semstore.probes_per_query", per_query(u.store_probes), "count");
  out->Add("semstore.hit_ratio",
           Ratio(static_cast<double>(u.store_hits),
                 static_cast<double>(u.store_probes)),
           "ratio");
  out->Add("semstore.views", Median(u.store_views), "count");
  out->Add("semstore.pooled_rows", Median(u.store_rows), "count");
  out->Add("semstore.bytes", Median(u.store_bytes), "bytes");
  out->Add("semstore.rows_from_cache_per_query", per_query(uq.rows_from_cache),
           "count");
  out->Add("market.calls_per_query", per_query(uq.calls), "count");
  out->Add("market.tx_per_call",
           Ratio(static_cast<double>(uq.transactions),
                 static_cast<double>(uq.calls)),
           "tx/call");
  out->Add("market.rows_per_query", per_query(uq.rows_from_market), "count");
  out->Add("market.get_us_p50", Median(tq.market_get_us), "us");
  out->Add("market.get_us_p99", Percentile(tq.market_get_us, 0.99), "us");
  out->Add("market.coalescable_tx_frac",
           Ratio(static_cast<double>(u.coalescable_tx),
                 static_cast<double>(u.billed)),
           "ratio");
  out->Add("market.wait_frac_of_fetch",
           Ratio(static_cast<double>(tq.market_wait_us),
                 static_cast<double>(tq.fetch_us)),
           "ratio");
  out->Add("exec.execute_self_us_p50", Median(tq.execute_self_us), "us");
  out->Add("exec.access_self_us_p50", Median(tq.access_self_us), "us");
  out->Add("exec.result_rows_per_query", per_query(uq.result_rows), "count");
  out->Add("trace.overhead_qps", qps_untraced - qps_traced, "queries/s");
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      continue;
    }
    if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Untraced runs build the inputs and clients several times so set-up
  // time is a median; the last set-up is the one measured. real_warm's
  // warm-up, a few whole replays of the pool, runs once and adds its time.
  std::vector<double> build_s;
  Setup setup;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    setup = Setup{};  // release the previous set-up before timing the next
    const auto start = Clock::now();
    setup = DoSetup(*w, args.trace);
    build_s.push_back(SecondsSince(start));
  }
  const auto warm_start = Clock::now();
  if (!w->cold) {
    WarmUp(setup.warm_client.get(), setup.inputs);
    if (setup.warm_traced_client != nullptr) {
      WarmUp(setup.warm_traced_client.get(), setup.inputs);
    }
  }
  const double setup_s = Median(build_s) + SecondsSince(warm_start);

  ResultChecker checker(*setup.inputs.bundle,
                        *setup.warm_client->local_db());
  PhaseStats untraced, traced;
  const auto measure_start = Clock::now();
  const int64_t failed_checks =
      RunPasses(*w, &setup, args.seed, args.seconds, &checker, &untraced,
                args.trace ? &traced : nullptr);
  const double measure_s = SecondsSince(measure_start);
  const double peak_rss_mib = PeakRssMiB();

  const int64_t attempted = untraced.q.attempted + traced.q.attempted;
  const int64_t failed = untraced.q.failed + traced.q.failed + failed_checks;
  std::printf("# workload %s seed %llu: %lld passes, %lld queries, "
              "%lld distinct instances checked against the reference\n",
              w->name, static_cast<unsigned long long>(args.seed),
              static_cast<long long>(untraced.passes + traced.passes),
              static_cast<long long>(attempted),
              static_cast<long long>(checker.checked()));
  std::printf("# wall: set-up %.2f s (inputs and clients %.2f s x %d), "
              "passes and checks %.2f s\n",
              setup_s, Median(build_s), setups, measure_s);
  std::printf("# failed_frac %.6f (%lld of %lld)\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));

  MetricsOut out;
  if (args.trace) {
    AddPerLayer(untraced, traced, &out);
  } else {
    AddEndToEnd(untraced, setup_s, peak_rss_mib, &out);
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), out.json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace payless::perfbench

int main(int argc, char** argv) {
  return payless::perfbench::Main(argc, argv);
}
