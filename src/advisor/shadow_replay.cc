#include "advisor/shadow_replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "obs/observability.h"

namespace payless::advisor {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The shadow client config for one tenant under one cell: the paper's
/// full system, forced strictly serial (single-call fan-out, no tracing,
/// no flight recorder, no durability) so two replays take byte-identical
/// paths through the market.
exec::PayLessConfig ShadowClientConfig(const ShadowConfig& cell,
                                       const std::string& tenant,
                                       obs::Observability* obs) {
  exec::PayLessConfig config = workload::PayLessFullConfig();
  config.tenant = tenant;
  config.observability = obs;
  config.max_parallel_calls = 1;
  config.enable_tracing = false;
  config.enable_flight_recorder = false;
  config.enable_savings_accounting = true;
  config.placement_capacity_bytes = cell.store_budget_bytes;
  return config;
}

}  // namespace

std::string BillFingerprint(const ReplayResult& result) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  for (const auto& [tenant, bill] : result.bills) {  // std::map: sorted
    os << tenant << "={txn=" << bill.transactions << ",price=" << bill.price;
    for (const auto& [dataset, transactions] : bill.by_dataset) {
      os << "," << dataset << "=" << transactions;
    }
    os << "}\n";
  }
  os << "total={txn=" << result.total_transactions
     << ",price=" << result.total_price << "}\n";
  return os.str();
}

ReplayResult ReplayJournal(const workload::Bundle& bundle,
                           const std::vector<obs::WorkloadRecord>& records,
                           const ShadowConfig& config) {
  ReplayResult result;
  result.config_name = config.name;

  // Journal seq order IS the virtual arrival order: appends happen in
  // completion order, so re-sort by the seq assigned at arrival capture.
  std::vector<const obs::WorkloadRecord*> ordered;
  ordered.reserve(records.size());
  for (const obs::WorkloadRecord& record : records) {
    ordered.push_back(&record);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const obs::WorkloadRecord* a, const obs::WorkloadRecord* b) {
              return a->seq < b->seq;
            });

  // Shadow world: private observability context, private federation
  // overlay (for multi-market cells), private per-tenant clients. The
  // bundle — catalog, hosted data, the single market — is only read.
  auto obs = std::make_unique<obs::Observability>();
  std::unique_ptr<federation::FederatedMarket> federation;
  if (config.federation_endpoints >= 2) {
    std::vector<workload::FederatedEndpointSpec> specs;
    for (size_t e = 0; e < config.federation_endpoints; ++e) {
      workload::FederatedEndpointSpec spec;
      spec.id = "shadow-m" + std::to_string(e);
      spec.simulated_latency_micros = config.simulated_latency_us;
      specs.push_back(std::move(spec));
    }
    federation = workload::MakeFederatedMarket(bundle, specs);
  }

  std::map<std::string, std::unique_ptr<exec::PayLess>> clients;
  const auto client_for =
      [&](const std::string& tenant) -> exec::PayLess* {
    auto it = clients.find(tenant);
    if (it != clients.end()) return it->second.get();
    if (config.tenant_hard_cap > 0) {
      obs::TenantBudget budget;
      budget.hard_cap_transactions = config.tenant_hard_cap;
      obs->governor.SetBudget(tenant, budget);
    }
    exec::PayLessConfig client_config =
        ShadowClientConfig(config, tenant, obs.get());
    std::unique_ptr<exec::PayLess> client;
    if (federation != nullptr) {
      client_config.federation = federation.get();
      client = workload::NewFederatedPayLessClient(bundle, federation.get(),
                                                   std::move(client_config));
    } else {
      client = workload::NewPayLessClient(bundle, std::move(client_config));
      client->connector()->SetSimulatedLatencyMicros(
          config.simulated_latency_us);
    }
    return clients.emplace(tenant, std::move(client)).first->second.get();
  };

  std::vector<int64_t> latencies;
  latencies.reserve(ordered.size());
  const auto absorb_single = [&](exec::PayLess* client,
                                 const obs::WorkloadRecord& record) {
    const auto start = std::chrono::steady_clock::now();
    Result<exec::QueryReport> report =
        client->QueryWithReport(record.sql, record.params);
    ++result.queries;
    if (!report.ok()) {
      if (report.status().code() == Status::Code::kBudgetExceeded) {
        ++result.rejected;
      } else {
        ++result.failed;
      }
      latencies.push_back(MicrosSince(start));
      return;
    }
    if (!report->error.ok()) ++result.failed;
    latencies.push_back(report->latency_us);
  };

  // Replay in virtual arrival order. With batch prefetch on, consecutive
  // same-tenant arrivals (up to the window) become one deferred batch —
  // the §7 multi-query optimization the recorded deployment did not run.
  size_t i = 0;
  while (i < ordered.size()) {
    exec::PayLess* client = client_for(ordered[i]->tenant);
    size_t window = 1;
    if (config.batch_prefetch) {
      while (i + window < ordered.size() && window < config.prefetch_window &&
             ordered[i + window]->tenant == ordered[i]->tenant) {
        ++window;
      }
    }
    if (window < 2) {
      absorb_single(client, *ordered[i]);
      ++i;
      continue;
    }
    std::vector<exec::BatchQuery> batch;
    batch.reserve(window);
    for (size_t k = 0; k < window; ++k) {
      batch.push_back(
          exec::BatchQuery{ordered[i + k]->sql, ordered[i + k]->params});
    }
    const auto start = std::chrono::steady_clock::now();
    Result<exec::BatchReport> batch_report = client->QueryBatch(batch);
    if (batch_report.ok()) {
      result.queries += static_cast<int64_t>(window);
      const int64_t per_query =
          MicrosSince(start) / static_cast<int64_t>(window);
      for (size_t k = 0; k < window; ++k) latencies.push_back(per_query);
    } else {
      // A mid-batch failure (e.g. a budget rejection inside the batch)
      // aborts QueryBatch without per-query outcomes; replay the window
      // individually instead. Queries the batch already ran re-execute
      // against a store that holds their data, so the path — and the bill
      // — stays deterministic.
      for (size_t k = 0; k < window; ++k) {
        absorb_single(client, *ordered[i + k]);
      }
    }
    i += window;
  }

  // The bill, straight from the shadow ledger.
  for (const auto& [tenant, client] : clients) {
    TenantBill bill;
    bill.transactions = obs->ledger.TenantTransactions(tenant);
    bill.price = obs->ledger.TenantPrice(tenant);
    for (const auto& [dataset, cell] : obs->ledger.TenantByDataset(tenant)) {
      bill.by_dataset[dataset] = cell.transactions;
    }
    result.bills[tenant] = std::move(bill);
  }
  result.total_transactions = obs->ledger.total_transactions();
  result.total_price = obs->ledger.total_price();
  result.savings_transactions = obs->savings.total_savings();

  // Reconciliation: every transaction the shadow ledger attributed must be
  // on exactly one shadow endpoint meter — ledger == meter, per cell,
  // every replay.
  int64_t metered = 0;
  for (const auto& [tenant, client] : clients) {
    metered += client->router()->TotalMeteredTransactions();
  }
  result.ledger_matches_meter = metered == result.total_transactions;

  if (!latencies.empty()) {
    int64_t sum = 0;
    for (const int64_t v : latencies) sum += v;
    result.mean_latency_us =
        static_cast<double>(sum) / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    const size_t rank =
        (latencies.size() * 99 + 99) / 100;  // ceil(0.99 * n), 1-based
    result.p99_latency_us = latencies[std::min(rank, latencies.size()) - 1];
  }
  return result;
}

}  // namespace payless::advisor
