#include "advisor/deployment_advisor.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <map>
#include <sstream>
#include <thread>

namespace payless::advisor {

namespace {

constexpr int64_t kBoundedStoreBytes = 256 << 10;

std::string CellName(int64_t store_bytes, bool prefetch, size_t markets,
                     int64_t cap) {
  std::ostringstream os;
  os << "store="
     << (store_bytes == 0 ? std::string("unbounded")
                          : std::to_string(store_bytes >> 10) + "KiB")
     << ",prefetch=" << (prefetch ? "on" : "off") << ",markets=" << markets
     << ",cap=" << (cap == 0 ? std::string("none") : std::to_string(cap));
  return os.str();
}

void AppendJsonEscaped(std::ostringstream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        os << c;
    }
  }
}

}  // namespace

std::vector<ShadowConfig> DefaultGrid(
    const std::vector<obs::WorkloadRecord>& records) {
  // A cap that genuinely binds: half the smallest spending tenant's
  // recorded spend, so capped cells reject part of the workload and the
  // feasibility rule (not the price) is what sorts them out.
  std::map<std::string, int64_t> recorded_spend;
  for (const obs::WorkloadRecord& record : records) {
    recorded_spend[record.tenant] += record.transactions;
  }
  int64_t min_spend = 0;
  for (const auto& [tenant, spend] : recorded_spend) {
    if (spend > 0 && (min_spend == 0 || spend < min_spend)) min_spend = spend;
  }
  const int64_t tight_cap = std::max<int64_t>(1, min_spend / 2);

  std::vector<ShadowConfig> grid;
  ShadowConfig seed;
  seed.name = kSeedConfigName;
  grid.push_back(seed);
  for (const int64_t store_bytes : {int64_t{0}, kBoundedStoreBytes}) {
    for (const bool prefetch : {false, true}) {
      for (const size_t markets : {size_t{1}, size_t{2}}) {
        for (const int64_t cap : {int64_t{0}, tight_cap}) {
          if (store_bytes == 0 && !prefetch && markets == 1 && cap == 0) {
            continue;  // identical to the seed cell
          }
          ShadowConfig cell;
          cell.name = CellName(store_bytes, prefetch, markets, cap);
          cell.store_budget_bytes = store_bytes;
          cell.batch_prefetch = prefetch;
          cell.tenant_hard_cap = cap;
          cell.federation_endpoints = markets;
          grid.push_back(std::move(cell));
        }
      }
    }
  }
  return grid;
}

Result<AdvisorReport> Advise(const workload::Bundle& bundle,
                             const std::vector<obs::WorkloadRecord>& records,
                             const AdvisorOptions& options) {
  if (records.empty()) {
    return Status::InvalidArgument("advisor: empty workload journal");
  }
  std::vector<ShadowConfig> grid =
      options.grid.empty() ? DefaultGrid(records) : options.grid;
  for (ShadowConfig& cell : grid) {
    cell.simulated_latency_us = options.simulated_latency_us;
  }

  // Up to max_parallel_cells threads, the caller included, claim cell
  // indices from one counter; each writes only its own outcome slot, so the
  // result is independent of which thread replayed which cell.
  std::vector<CellOutcome> outcomes(grid.size());
  std::atomic<size_t> next_cell{0};
  const auto replay_cells = [&] {
    for (size_t i = next_cell.fetch_add(1); i < grid.size();
         i = next_cell.fetch_add(1)) {
      CellOutcome& outcome = outcomes[i];
      outcome.config = grid[i];
      outcome.replay = ReplayJournal(bundle, records, grid[i]);
      outcome.fingerprint = BillFingerprint(outcome.replay);
      if (options.twin_check) {
        const ReplayResult twin = ReplayJournal(bundle, records, grid[i]);
        outcome.twin_identical = BillFingerprint(twin) == outcome.fingerprint;
      }
    }
  };
  const size_t parallel = std::min<size_t>(
      grid.size(), options.max_parallel_cells != 0
                       ? options.max_parallel_cells
                       : std::max(1u, std::thread::hardware_concurrency()));
  {
    std::vector<std::jthread> helpers;
    for (size_t t = 1; t < parallel; ++t) helpers.emplace_back(replay_cells);
    replay_cells();
  }  // joins the helpers

  for (CellOutcome& outcome : outcomes) {
    const ReplayResult& r = outcome.replay;
    if (!r.error.ok()) {
      outcome.infeasible_reasons.push_back("replay error: " +
                                           r.error.ToString());
    }
    if (!outcome.twin_identical) {
      outcome.infeasible_reasons.push_back("twin replays diverged");
    }
    if (!r.ledger_matches_meter) {
      outcome.infeasible_reasons.push_back("ledger != meter");
    }
    if (r.failed > 0) {
      outcome.infeasible_reasons.push_back(
          std::to_string(r.failed) + " queries failed");
    }
    if (r.rejected > 0) {
      outcome.infeasible_reasons.push_back(
          std::to_string(r.rejected) + " queries budget-rejected");
    }
    if (options.objective.max_mean_latency_us > 0 &&
        r.mean_latency_us >
            static_cast<double>(options.objective.max_mean_latency_us)) {
      outcome.infeasible_reasons.push_back("mean latency over objective");
    }
    if (options.objective.max_p99_latency_us > 0 &&
        r.p99_latency_us > options.objective.max_p99_latency_us) {
      outcome.infeasible_reasons.push_back("p99 latency over objective");
    }
    outcome.feasible = outcome.infeasible_reasons.empty();
  }

  // Rank: feasible before infeasible, then cheapest money, then fewest
  // transactions, then name (a total, deterministic order).
  std::sort(outcomes.begin(), outcomes.end(),
            [](const CellOutcome& a, const CellOutcome& b) {
              if (a.feasible != b.feasible) return a.feasible;
              if (a.replay.total_price != b.replay.total_price) {
                return a.replay.total_price < b.replay.total_price;
              }
              if (a.replay.total_transactions !=
                  b.replay.total_transactions) {
                return a.replay.total_transactions <
                       b.replay.total_transactions;
              }
              return a.config.name < b.config.name;
            });

  AdvisorReport report;
  report.records_replayed = static_cast<int64_t>(records.size());
  report.seed_name = grid.front().name;
  for (const CellOutcome& outcome : outcomes) {
    if (outcome.config.name == report.seed_name) {
      report.seed_price = outcome.replay.total_price;
    }
  }
  if (!outcomes.empty() && outcomes.front().feasible) {
    report.recommended = outcomes.front().config.name;
    report.recommended_price = outcomes.front().replay.total_price;
    if (report.seed_price > 0) {
      report.savings_vs_seed_pct = 100.0 *
                                   (report.seed_price -
                                    report.recommended_price) /
                                   report.seed_price;
    }
  }
  report.ranked = std::move(outcomes);
  return report;
}

std::string AdvisorReport::ToJson() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << "{\"records_replayed\":" << records_replayed << ",\"recommended\":\"";
  AppendJsonEscaped(os, recommended);
  os << "\",\"seed\":\"";
  AppendJsonEscaped(os, seed_name);
  os << "\",\"seed_price\":" << seed_price
     << ",\"recommended_price\":" << recommended_price
     << ",\"savings_vs_seed_pct\":" << savings_vs_seed_pct << ",\"cells\":[";
  for (size_t i = 0; i < ranked.size(); ++i) {
    const CellOutcome& c = ranked[i];
    if (i > 0) os << ",";
    os << "{\"rank\":" << (i + 1) << ",\"name\":\"";
    AppendJsonEscaped(os, c.config.name);
    os << "\",\"feasible\":" << (c.feasible ? "true" : "false")
       << ",\"twin_identical\":" << (c.twin_identical ? "true" : "false")
       << ",\"ledger_matches_meter\":"
       << (c.replay.ledger_matches_meter ? "true" : "false")
       << ",\"config\":{\"store_budget_bytes\":" << c.config.store_budget_bytes
       << ",\"batch_prefetch\":" << (c.config.batch_prefetch ? "true" : "false")
       << ",\"prefetch_window\":" << c.config.prefetch_window
       << ",\"tenant_hard_cap\":" << c.config.tenant_hard_cap
       << ",\"federation_endpoints\":" << c.config.federation_endpoints << "}"
       << ",\"total_transactions\":" << c.replay.total_transactions
       << ",\"total_price\":" << c.replay.total_price
       << ",\"queries\":" << c.replay.queries
       << ",\"rejected\":" << c.replay.rejected
       << ",\"failed\":" << c.replay.failed
       << ",\"savings_transactions\":" << c.replay.savings_transactions
       << ",\"infeasible_reasons\":[";
    for (size_t k = 0; k < c.infeasible_reasons.size(); ++k) {
      if (k > 0) os << ",";
      os << "\"";
      AppendJsonEscaped(os, c.infeasible_reasons[k]);
      os << "\"";
    }
    os << "],\"bills\":{";
    bool first = true;
    for (const auto& [tenant, bill] : c.replay.bills) {
      if (!first) os << ",";
      first = false;
      os << "\"";
      AppendJsonEscaped(os, tenant);
      os << "\":{\"transactions\":" << bill.transactions
         << ",\"price\":" << bill.price << "}";
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string AdvisorReport::RenderText() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os << "Deployment advisor · " << records_replayed
     << " recorded queries replayed per cell\n";
  os << std::setw(4) << "rank" << "  " << std::left << std::setw(52)
     << "configuration" << std::right << std::setw(12) << "price"
     << std::setw(10) << "txn" << std::setw(9) << "rejects" << std::setw(8)
     << "fails" << std::setw(11) << "mean_us" << std::setw(10) << "p99_us"
     << "  feasible\n";
  for (size_t i = 0; i < ranked.size(); ++i) {
    const CellOutcome& c = ranked[i];
    os << std::setw(4) << (i + 1) << "  " << std::left << std::setw(52)
       << c.config.name << std::right << std::setw(12) << std::setprecision(2)
       << c.replay.total_price << std::setw(10) << c.replay.total_transactions
       << std::setw(9) << c.replay.rejected << std::setw(8) << c.replay.failed
       << std::setw(11) << std::setprecision(0) << c.replay.mean_latency_us
       << std::setw(10) << c.replay.p99_latency_us << "  "
       << (c.feasible ? "yes" : "NO");
    if (!c.infeasible_reasons.empty()) {
      os << "  (";
      for (size_t k = 0; k < c.infeasible_reasons.size(); ++k) {
        if (k > 0) os << "; ";
        os << c.infeasible_reasons[k];
      }
      os << ")";
    }
    os << "\n";
  }
  os << std::setprecision(2);
  if (recommended.empty()) {
    os << "recommended: none — no feasible configuration\n";
  } else {
    os << "recommended: " << recommended << " at " << recommended_price
       << " vs seed '" << seed_name << "' at " << seed_price;
    if (seed_price > 0) {
      os << " (" << (recommended_price <= seed_price ? "-" : "+")
         << std::abs(savings_vs_seed_pct) << "% money)";
    }
    os << "\n";
  }
  return os.str();
}

void RegisterAdvisorRoute(obs::HttpExpositionServer* server,
                          std::shared_ptr<const AdvisorReport> report) {
  server->AddRoute("/advisor", [report](const std::string&) {
    return obs::HttpReply::Json(report->ToJson());
  });
}

}  // namespace payless::advisor
