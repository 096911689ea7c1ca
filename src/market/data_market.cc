#include "market/data_market.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/snapshot.h"
#include "market/call_scheduler.h"

namespace payless::market {

int64_t TransactionsFor(int64_t records, int64_t tuples_per_transaction) {
  if (records <= 0) return 0;
  return (records + tuples_per_transaction - 1) / tuples_per_transaction;
}

void BillingMeter::Record(const std::string& dataset, int64_t transactions,
                          double price) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerDataset& d = per_dataset_[dataset];
  d.transactions += transactions;
  d.price += price;
  d.calls += 1;
  total_transactions_ += transactions;
  total_price_ += price;
  total_calls_ += 1;
}

int64_t BillingMeter::TransactionsFor(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = per_dataset_.find(dataset);
  return it == per_dataset_.end() ? 0 : it->second.transactions;
}

void BillingMeter::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  per_dataset_.clear();
  total_transactions_ = 0;
  total_price_ = 0.0;
  total_calls_ = 0;
}

std::string BillingMeter::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "billing: " << total_calls_ << " calls, " << total_transactions_
     << " transactions, $" << total_price_ << "\n";
  for (const auto& [name, d] : per_dataset_) {
    os << "  " << name << ": " << d.calls << " calls, " << d.transactions
       << " transactions, $" << d.price << "\n";
  }
  return os.str();
}

void DataMarket::HostedTable::Insert(Row row) {
  rows.push_back(std::move(row));
  if (!seen.insert(static_cast<uint32_t>(rows.size() - 1)).second) {
    rows.pop_back();
  }
}

void DataMarket::IndexRows(const catalog::TableDef& def, HostedTable* table,
                           size_t first_row) const {
  for (const size_t col : def.ConstrainableColumns()) {
    auto& postings = table->point_index[col];
    const bool numeric = def.columns[col].domain.is_numeric();
    RangeIndex* sorted = numeric ? &table->range_index[col] : nullptr;
    for (size_t i = first_row; i < table->rows.size(); ++i) {
      const Value& v = table->rows[i][col];
      if (v.is_null()) continue;
      postings[v].push_back(static_cast<uint32_t>(i));
      if (sorted == nullptr) continue;
      if (v.is_int64()) {
        sorted->entries.emplace_back(v.AsInt64(), static_cast<uint32_t>(i));
      } else {
        sorted->complete = false;
      }
    }
    if (sorted != nullptr) {
      std::sort(sorted->entries.begin(), sorted->entries.end());
    }
  }
}

Status DataMarket::HostTable(const std::string& name, std::vector<Row> rows) {
  const catalog::TableDef* def = catalog_->FindTable(name);
  if (def == nullptr) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  if (def->is_local) {
    return Status::InvalidArgument("table '" + name +
                                   "' is local; cannot host in the market");
  }
  for (const Row& row : rows) {
    if (row.size() != def->columns.size()) {
      return Status::InvalidArgument("row arity mismatch for '" + name + "'");
    }
  }
  auto table = std::make_unique<HostedTable>();
  table->rows.reserve(rows.size());
  table->seen.reserve(rows.size());
  for (Row& row : rows) table->Insert(std::move(row));
  rows = {};  // free the moved-from husks before indexing
  IndexRows(*def, table.get(), 0);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  hosted_[name] = std::move(table);
  return Status::OK();
}

Status DataMarket::AppendRows(const std::string& name,
                              const std::vector<Row>& rows) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto it = hosted_.find(name);
  if (it == hosted_.end()) {
    return Status::NotFound("table '" + name + "' not hosted");
  }
  const catalog::TableDef* def = catalog_->FindTable(name);
  HostedTable& table = *it->second;
  const size_t first_new = table.rows.size();
  for (const Row& row : rows) {
    if (row.size() != def->columns.size()) {
      return Status::InvalidArgument("row arity mismatch for '" + name + "'");
    }
    table.Insert(row);
  }
  // Rebuild range indexes incrementally is not worth it here: re-index the
  // appended suffix for postings and re-sort the range projections.
  IndexRows(*def, &table, first_new);
  return Status::OK();
}

Result<CallResult> DataMarket::Execute(const RestCall& call) const {
  const catalog::TableDef* def = catalog_->FindTable(call.table);
  if (def == nullptr) {
    return Status::NotFound("table '" + call.table + "' not in catalog");
  }
  PAYLESS_RETURN_IF_ERROR(call.Validate(*def));
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = hosted_.find(call.table);
  if (it == hosted_.end()) {
    return Status::NotFound("table '" + call.table + "' not hosted");
  }
  const catalog::DatasetDef* dataset = catalog_->DatasetOf(*def);
  if (dataset == nullptr) {
    return Status::Internal("market table '" + call.table +
                            "' has no dataset pricing");
  }

  const HostedTable& hosted = *it->second;

  // Candidate lists the call's conditions offer: the smallest point
  // posting, and the narrowest numeric range span. The smaller of the two
  // is scanned; every other condition verifies per row.
  CallResult result;
  const std::vector<uint32_t>* posting = nullptr;
  for (size_t col = 0; col < call.conditions.size(); ++col) {
    const AttrCondition& cond = call.conditions[col];
    if (cond.kind != AttrCondition::Kind::kPoint) continue;
    const auto idx_it = hosted.point_index.find(col);
    if (idx_it == hosted.point_index.end()) continue;
    const auto post_it = idx_it->second.find(cond.point);
    if (post_it == idx_it->second.end()) {
      result.num_records = 0;  // no row carries this value
      result.transactions = 0;
      result.price = 0.0;
      return result;
    }
    if (posting == nullptr || post_it->second.size() < posting->size()) {
      posting = &post_it->second;
    }
  }
  using SpanIt = std::vector<std::pair<int64_t, uint32_t>>::const_iterator;
  SpanIt span_lo;
  SpanIt span_hi;
  bool have_span = false;
  for (size_t col = 0; col < call.conditions.size(); ++col) {
    const AttrCondition& cond = call.conditions[col];
    if (cond.kind != AttrCondition::Kind::kRange) continue;
    const auto idx_it = hosted.range_index.find(col);
    if (idx_it == hosted.range_index.end()) continue;
    // An incomplete projection still serves range-only calls, but never
    // stands in for a posting.
    if (posting != nullptr && !idx_it->second.complete) continue;
    const auto& entries = idx_it->second.entries;
    const SpanIt lo = std::lower_bound(
        entries.begin(), entries.end(),
        std::make_pair(cond.range.lo, static_cast<uint32_t>(0)));
    const SpanIt hi = std::upper_bound(
        entries.begin(), entries.end(),
        std::make_pair(cond.range.hi, ~static_cast<uint32_t>(0)));
    if (!have_span || hi - lo < span_hi - span_lo) {
      span_lo = lo;
      span_hi = hi;
      have_span = true;
    }
  }

  if (posting != nullptr &&
      (!have_span ||
       posting->size() <= static_cast<size_t>(span_hi - span_lo))) {
    for (const uint32_t i : *posting) {
      if (call.MatchesRow(hosted.rows[i])) result.rows.push_back(hosted.rows[i]);
    }
  } else if (posting != nullptr) {
    // The span is narrower, but a point condition fixes ascending row order.
    std::vector<uint32_t> matched;
    for (SpanIt entry = span_lo; entry != span_hi; ++entry) {
      if (call.MatchesRow(hosted.rows[entry->second])) {
        matched.push_back(entry->second);
      }
    }
    std::sort(matched.begin(), matched.end());
    result.rows.reserve(matched.size());
    for (const uint32_t i : matched) result.rows.push_back(hosted.rows[i]);
  } else if (have_span) {
    for (SpanIt entry = span_lo; entry != span_hi; ++entry) {
      const Row& row = hosted.rows[entry->second];
      if (call.MatchesRow(row)) result.rows.push_back(row);
    }
  } else {
    for (const Row& row : hosted.rows) {
      if (call.MatchesRow(row)) result.rows.push_back(row);
    }
  }
  result.num_records = static_cast<int64_t>(result.rows.size());
  result.transactions =
      TransactionsFor(result.num_records, dataset->tuples_per_transaction);
  result.price =
      static_cast<double>(result.transactions) * dataset->price_per_transaction;
  return result;
}

const std::vector<Row>* DataMarket::HostedRows(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = hosted_.find(name);
  return it == hosted_.end() ? nullptr : &it->second->rows;
}

Result<int64_t> DataMarket::TableSize(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = hosted_.find(name);
  if (it == hosted_.end()) {
    return Status::NotFound("table '" + name + "' not hosted");
  }
  return static_cast<int64_t>(it->second->rows.size());
}

namespace {

/// "Country=US, StationID=5, Date=[1, 30]" — the call's binding values and
/// ranges, for span annotation.
std::string DescribeConditions(const catalog::TableDef& def,
                               const RestCall& call) {
  std::string out;
  const size_t n = std::min(call.conditions.size(), def.columns.size());
  for (size_t i = 0; i < n; ++i) {
    const AttrCondition& cond = call.conditions[i];
    if (cond.is_none()) continue;
    if (!out.empty()) out += ", ";
    out += def.columns[i].name + "=" + cond.ToString();
  }
  return out;
}

}  // namespace

MarketConnector::MarketConnector(const DataMarket* market) : market_(market) {}

MarketConnector::~MarketConnector() = default;

CallScheduler* MarketConnector::scheduler() {
  std::call_once(scheduler_once_, [this] {
    scheduler_ = std::make_unique<CallScheduler>(this, scheduler_hooks_);
  });
  return scheduler_.get();
}

int64_t MarketConnector::NextDelayMicros(int64_t* backoff,
                                         int64_t retry_after_micros,
                                         uint64_t* jitter_state) {
  int64_t delay = *backoff;
  *backoff = std::min(
      static_cast<int64_t>(static_cast<double>(*backoff) *
                           policy_.backoff_multiplier),
      policy_.max_backoff_micros);
  // A rate-limit rejection's retry-after hint is a floor: retrying sooner
  // would just burn another attempt on a closed door.
  if (retry_after_micros > delay) delay = retry_after_micros;
  if (policy_.jitter > 0.0) {
    *jitter_state = common::SplitMix64(*jitter_state);
    const double factor = common::ToUnitRange(
        *jitter_state, 1.0 - policy_.jitter, 1.0 + policy_.jitter);
    delay = static_cast<int64_t>(static_cast<double>(delay) * factor);
  }
  return std::max<int64_t>(delay, 0);
}

void MarketConnector::Finish(CallTask* t, Result<CallResult> outcome,
                             const char* label) {
  t->outcome_label = label;
  t->outcome = std::move(outcome);
  t->done = true;
  if (t->trace != nullptr) {
    t->trace->AddAttr(t->span_id, "attempts", t->span_attempts);
    t->trace->AddAttr(t->span_id, "retries", t->span_retries);
    t->trace->AddAttr(t->span_id, "transactions", t->billed_transactions);
    t->trace->AddAttr(t->span_id, "wasted_transactions",
                      t->wasted_transactions);
    t->trace->AddAttr(t->span_id, "outcome", std::string(t->outcome_label));
    t->trace->EndSpan(t->span_id);
  }
}

void MarketConnector::BeginCall(CallTask* t) {
  t->def = market_->catalog().FindTable(t->call->table);
  if (t->def == nullptr) {
    // Before any span opens, matching the historical behaviour.
    t->outcome = Status::NotFound("table '" + t->call->table +
                                  "' not in catalog");
    t->done = true;
    return;
  }
  t->dataset = t->def->dataset;

  if (t->call_obs != nullptr && t->call_obs->trace != nullptr) {
    t->trace = t->call_obs->trace;
    t->span_id = t->trace->StartSpan("market.get", t->call_obs->parent_span);
    t->trace->AddAttr(t->span_id, "table", t->call->table);
    t->trace->AddAttr(t->span_id, "dataset", t->dataset);
    t->trace->AddAttr(t->span_id, "conditions",
                      DescribeConditions(*t->def, *t->call));
  }

  // Effective deadline: the caller's (per-query) budget capped by the
  // policy's per-call timeout.
  t->effective = t->deadline;
  if (policy_.call_timeout_micros > 0) {
    const Clock::time_point call_cap =
        Clock::now() + std::chrono::microseconds(policy_.call_timeout_micros);
    if (call_cap < t->effective) t->effective = call_cap;
  }

  // Circuit-breaker admission: an open breaker fails fast, spending neither
  // time nor money on a dataset that keeps failing.
  if (!breakers_.Admit(t->dataset, policy_, Clock::now())) {
    std::lock_guard<std::mutex> lock(retry_stats_mutex_);
    ++retry_stats_.breaker_rejections;
    ++retry_stats_.failed_calls;
    Finish(t,
           Status::Unavailable("circuit breaker open for dataset '" +
                               t->dataset + "'"),
           "breaker_rejected");
    return;
  }

  t->max_attempts = std::max(1, policy_.max_attempts);
  t->backoff = policy_.initial_backoff_micros;
  t->jitter_state =
      policy_.jitter_seed ^
      common::SplitMix64(jitter_sequence_.fetch_add(
          1, std::memory_order_relaxed));
}

int64_t MarketConnector::BeginAttempt(CallTask* t) {
  ++t->attempt;
  {
    std::lock_guard<std::mutex> lock(retry_stats_mutex_);
    ++retry_stats_.attempts;
    if (t->attempt > 1) ++retry_stats_.retries;
  }
  ++t->span_attempts;
  if (t->attempt > 1) ++t->span_retries;
  const Clock::time_point now = Clock::now();
  t->attempt_start = now;  // RTT clock: BeginAttempt -> CompleteAttempt
  if (now >= t->effective) {
    std::lock_guard<std::mutex> lock(retry_stats_mutex_);
    ++retry_stats_.deadline_exceeded;
    ++retry_stats_.failed_calls;
    Finish(t,
           Status::DeadlineExceeded("deadline elapsed before attempt " +
                                    std::to_string(t->attempt) + " on '" +
                                    t->call->table + "'"),
           "deadline");
    return 0;
  }

  // The network round trip (plus any injected latency spike), paid outside
  // every lock so concurrent calls overlap it — the whole point of the
  // concurrency layer. The driver elapses it: the synchronous Get sleeps,
  // the CallScheduler arms a timer and keeps the worker free.
  int64_t delay = simulated_latency_micros_.load(std::memory_order_relaxed);
  t->fault = FaultDecision{};
  if (FaultInjector* injector = injector_.load(std::memory_order_acquire)) {
    t->fault = injector->Decide(*t->call);
  }
  if (t->fault.latency_spike_micros > 0) {
    delay += t->fault.latency_spike_micros;
  }
  return delay;
}

int64_t MarketConnector::CompleteAttempt(CallTask* t) {
  // Per-attempt market RTT: everything between BeginAttempt and now — the
  // simulated round trip, injected spikes, and however long the driver let
  // the timer sit. Recorded for every attempt, successful or not, so the
  // tail reflects what callers actually waited.
  if (t->attempt_start != kNoDeadline) {
    const int64_t rtt_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t->attempt_start)
            .count();
    if (latency_.rtt != nullptr) latency_.rtt->Record(rtt_micros);
    if (latency_.slo != nullptr) latency_.slo->Record(rtt_micros);
    if (t->call_obs != nullptr && t->call_obs->stages != nullptr) {
      t->call_obs->stages->Add(obs::kStageMarketRtt, rtt_micros);
    }
  }
  switch (t->fault.kind) {
    case FaultKind::kTransientDrop:
      // Dropped before the market saw it: nothing evaluated, nothing
      // billed.
      t->last_error = Status::Unavailable("transient fault calling '" +
                                          t->call->table + "'");
      {
        std::lock_guard<std::mutex> lock(retry_stats_mutex_);
        ++retry_stats_.transient_faults;
      }
      break;
    case FaultKind::kRateLimit:
      t->last_error = Status::ResourceExhausted(
          "rate limited on '" + t->call->table + "'; retry after " +
          std::to_string(t->fault.retry_after_micros) + "us");
      {
        std::lock_guard<std::mutex> lock(retry_stats_mutex_);
        ++retry_stats_.rate_limited;
      }
      break;
    case FaultKind::kNone:
    case FaultKind::kLostResponse: {
      Result<CallResult> result = market_->Execute(*t->call);
      if (!result.ok()) {
        // A genuine market rejection (validation, unknown table, ...):
        // a property of the request, never retryable, not the breaker's
        // business.
        {
          std::lock_guard<std::mutex> lock(retry_stats_mutex_);
          ++retry_stats_.failed_calls;
        }
        Finish(t, std::move(result), "market_error");
        return 0;
      }
      // The market evaluated the call, so the seller bills it (Eq. 1) —
      // whether or not the response makes it back to us. The ledger
      // mirrors the meter HERE, at the single billing point, so per-tenant
      // attribution stays exact under retries and lost responses.
      meter_.Record(t->dataset, result->transactions, result->price);
      obs::CostLedger* ledger =
          t->call_obs != nullptr ? t->call_obs->ledger : nullptr;
      if (ledger != nullptr) {
        // Lost responses are flagged as waste in the same Record, so the
        // savings ledger can carve billed-but-undelivered transactions
        // out as negative savings with per-cell exactness.
        const int64_t wasted = t->fault.kind == FaultKind::kLostResponse
                                   ? result->transactions
                                   : 0;
        ledger->Record(t->call_obs->tenant, t->call_obs->query_id,
                       t->dataset, result->transactions, result->price,
                       wasted, market_label_);
      }
      t->billed_transactions += result->transactions;
      if (t->fault.kind == FaultKind::kLostResponse) {
        // Response lost in transit: paid-for work with nothing delivered.
        // Surface it as waste; listeners must NOT see it.
        std::lock_guard<std::mutex> lock(retry_stats_mutex_);
        ++retry_stats_.wasted_calls;
        retry_stats_.wasted_transactions += result->transactions;
        retry_stats_.wasted_price += result->price;
        t->wasted_transactions += result->transactions;
        t->last_error = Status::Unavailable(
            "response lost after evaluation on '" + t->call->table +
            "' (billed)");
        break;
      }
      breakers_.RecordSuccess(t->dataset);
      {
        std::shared_lock<std::shared_mutex> lock(listeners_mutex_);
        for (const Listener& listener : listeners_) {
          listener(*t->call, *result);
        }
      }
      Finish(t, std::move(result), "ok");
      return 0;
    }
  }

  // Retryable attempt failure.
  const bool tripped =
      breakers_.RecordFailure(t->dataset, policy_, Clock::now());
  if (tripped) {
    {
      std::lock_guard<std::mutex> lock(retry_stats_mutex_);
      ++retry_stats_.breaker_trips;
      ++retry_stats_.failed_calls;
    }
    // No point burning the remaining attempts: the breaker has decided
    // this dataset needs a cooldown.
    Finish(t,
           Status::Unavailable("circuit breaker tripped for dataset '" +
                               t->dataset + "': " +
                               t->last_error.message()),
           "breaker_tripped");
    return 0;
  }
  if (t->attempt == t->max_attempts) {
    {
      std::lock_guard<std::mutex> lock(retry_stats_mutex_);
      ++retry_stats_.failed_calls;
    }
    const std::string msg =
        "retries exhausted (" + std::to_string(t->max_attempts) +
        " attempts) on '" + t->call->table + "': " +
        t->last_error.message();
    Finish(t,
           t->last_error.code() == Status::Code::kResourceExhausted
               ? Status::ResourceExhausted(msg)
               : Status::Unavailable(msg),
           "retries_exhausted");
    return 0;
  }
  const int64_t delay = NextDelayMicros(&t->backoff,
                                        t->fault.retry_after_micros,
                                        &t->jitter_state);
  if (Clock::now() + std::chrono::microseconds(delay) >= t->effective) {
    std::lock_guard<std::mutex> lock(retry_stats_mutex_);
    ++retry_stats_.deadline_exceeded;
    ++retry_stats_.failed_calls;
    Finish(t,
           Status::DeadlineExceeded("deadline leaves no room for retry " +
                                    std::to_string(t->attempt + 1) +
                                    " on '" + t->call->table + "': " +
                                    t->last_error.message()),
           "deadline");
    return 0;
  }
  if (delay > 0) {
    if (latency_.backoff != nullptr) latency_.backoff->Record(delay);
    if (t->call_obs != nullptr && t->call_obs->stages != nullptr) {
      t->call_obs->stages->Add(obs::kStageBackoffWait, delay);
    }
  }
  return delay;
}

Result<CallResult> MarketConnector::Get(const RestCall& call,
                                        Clock::time_point deadline,
                                        const CallObs* call_obs) {
  CallTask task;
  task.call = &call;
  task.deadline = deadline;
  task.call_obs = call_obs;
  BeginCall(&task);
  while (!task.done) {
    const int64_t pre_delay = BeginAttempt(&task);
    if (task.done) break;
    if (pre_delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(pre_delay));
    }
    const int64_t retry_delay = CompleteAttempt(&task);
    if (task.done) break;
    if (retry_delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(retry_delay));
    }
  }
  return std::move(task.outcome);
}

}  // namespace payless::market
