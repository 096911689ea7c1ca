#include "obs/explain.h"

#include <cstdio>
#include <sstream>

#include "obs/accuracy.h"

namespace payless::obs {

namespace {

std::string FormatQError(double qerror) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", qerror);
  return buf;
}

/// One access line: `kind table [on (cols)] ~est...`.
void AppendAccessLine(std::ostringstream& os, const core::AccessSpec& access,
                      const sql::BoundQuery& query) {
  const sql::BoundRelation& rel = query.relations[access.rel];
  os << "  " << core::AccessKindName(access.kind) << " " << rel.def->name;
  // Federation: where this access buys (absent in single-market plans).
  if (!access.buy_site.empty()) os << " @" << access.buy_site;
  if (access.kind == core::AccessSpec::Kind::kBind) {
    os << " on (";
    for (size_t i = 0; i < access.bind_edges.size(); ++i) {
      if (i > 0) os << ", ";
      const sql::JoinEdge& e = access.bind_edges[i];
      const sql::BoundColumnRef& own =
          e.left.rel == access.rel ? e.left : e.right;
      os << rel.def->columns[own.col].name;
    }
    os << ")";
  }
  if (!access.IsZeroPrice()) {
    os << " ~" << access.est_transactions << " txn, ~" << access.est_calls
       << " calls, ~" << access.est_rows << " rows";
    if (access.kind == core::AccessSpec::Kind::kBind) {
      os << ", ~" << access.est_bind_values << " bind values";
    }
    if (access.used_sqr) os << " (SQR)";
  }
  os << "\n";
}

}  // namespace

std::string RenderPlan(const core::Plan& plan, const sql::BoundQuery& query) {
  return RenderExplain(plan, query, ExplainContext{});
}

std::string RenderExplain(const core::Plan& plan, const sql::BoundQuery& query,
                          const ExplainContext& context) {
  std::ostringstream os;
  os << "Plan[cost=" << plan.est_cost
     << " txn, est_rows=" << plan.est_result_rows << "]\n";
  for (size_t i = 0; i < plan.accesses.size(); ++i) {
    const core::AccessSpec& access = plan.accesses[i];
    AppendAccessLine(os, access, query);
    if (context.actuals != nullptr && i < context.actuals->size()) {
      const AccessActuals& a = (*context.actuals)[i];
      if (!a.present) {
        os << "    actual: (not executed)\n";
        continue;
      }
      os << "    actual: " << a.transactions << " txn, " << a.calls
         << " calls, " << a.rows << " rows";
      const int64_t wasted = a.spend.cost.wasted_transactions;
      if (a.spend.retries > 0 || wasted > 0) {
        os << ", " << a.spend.retries << " retries, " << wasted
           << " wasted txn";
      }
      if (!access.IsZeroPrice()) {
        const double qerror = AccuracyTracker::QError(
            static_cast<double>(access.est_transactions),
            static_cast<double>(a.transactions));
        os << ", q-error(txn) " << FormatQError(qerror);
      }
      os << "\n";
    }
  }
  if (context.counters != nullptr) {
    const core::PlanningCounters& c = *context.counters;
    os << "planning: evaluated_plans=" << c.evaluated_plans
       << " enumerated_bboxes=" << c.enumerated_bboxes
       << " kept_bboxes=" << c.kept_bboxes
       << " cache_hits=" << c.plan_cache_hits
       << " cache_misses=" << c.plan_cache_misses << "\n";
  }
  if (context.stats != nullptr) {
    for (const core::AccessSpec& access : plan.accesses) {
      const sql::BoundRelation& rel = query.relations[access.rel];
      if (!rel.is_market()) continue;
      const stats::EstimatorInfo info = context.stats->Info(rel.def->name);
      os << "stats: " << rel.def->name << " buckets=" << info.buckets
         << " feedbacks=" << info.feedbacks
         << " est_cardinality=" << info.total_count << "\n";
    }
  }
  if (context.transactions_spent >= 0) {
    os << "spent: " << context.transactions_spent << " txn\n";
  }
  if (context.counterfactual_transactions >= 0) {
    os << "counterfactual: " << context.counterfactual_transactions
       << " txn, saved: " << context.savings_transactions << " txn";
    if (context.counterfactual_transactions > 0) {
      const double pct = 100.0 *
                         static_cast<double>(context.savings_transactions) /
                         static_cast<double>(
                             context.counterfactual_transactions);
      char buf[32];
      std::snprintf(buf, sizeof(buf), " (%.1f%%)", pct);
      os << buf;
    }
    os << "\n";
  }
  if (context.latency_us >= 0) {
    char buf[160];
    if (context.stage_micros != nullptr) {
      const double plan_ms =
          static_cast<double>(context.stage_micros[kStageParsePlan] +
                              context.stage_micros[kStagePlanCacheProbe]) /
          1000.0;
      const double market_ms =
          static_cast<double>(context.stage_micros[kStageFetch]) / 1000.0;
      const double eval_ms =
          static_cast<double>(context.stage_micros[kStageLocalEval] +
                              context.stage_micros[kStageMerge]) /
          1000.0;
      std::snprintf(buf, sizeof(buf),
                    "latency: %.1f ms (plan %.1f, market %.1f, eval %.1f)\n",
                    static_cast<double>(context.latency_us) / 1000.0, plan_ms,
                    market_ms, eval_ms);
    } else {
      std::snprintf(buf, sizeof(buf), "latency: %.1f ms\n",
                    static_cast<double>(context.latency_us) / 1000.0);
    }
    os << buf;
  }
  return os.str();
}

}  // namespace payless::obs
