// The "Download All" strategy (§5): on the first query touching a market
// table, buy the ENTIRE table; afterwards everything is free local
// processing. Optimal when the workload will eventually scan whole
// datasets, ruinous when users walk away after a handful of selective
// queries — the trade-off Fig. 10 quantifies.
#ifndef PAYLESS_EXEC_DOWNLOAD_ALL_H_
#define PAYLESS_EXEC_DOWNLOAD_ALL_H_

#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "market/data_market.h"
#include "storage/database.h"

namespace payless::exec {

class DownloadAllClient {
 public:
  DownloadAllClient(const catalog::Catalog* catalog,
                    const market::DataMarket* market)
      : catalog_(catalog), connector_(market) {}

  DownloadAllClient(const DownloadAllClient&) = delete;
  DownloadAllClient& operator=(const DownloadAllClient&) = delete;

  /// Runs one query: downloads any not-yet-owned market table it touches
  /// (in full), then evaluates locally.
  Result<storage::Table> Query(const std::string& sql,
                               const std::vector<Value>& params = {});

  Status LoadLocalTable(const std::string& name, const std::vector<Row>& rows);

  /// Downloads one market table in full (idempotent). For tables with bound
  /// attributes the download iterates the bound attributes' domains, since
  /// no single unconstrained call is legal.
  Status EnsureDownloaded(const std::string& table);

  const market::BillingMeter& meter() const { return connector_.meter(); }
  storage::Database* local_db() { return &db_; }
  /// The client's connector — for installing a RetryPolicy or attaching a
  /// FaultInjector (chaos tests, flaky-market benchmarks).
  market::MarketConnector* connector() { return &connector_; }

 private:
  const catalog::Catalog* catalog_;
  market::MarketConnector connector_;
  storage::Database db_;
  std::set<std::string> downloaded_;
};

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_DOWNLOAD_ALL_H_
