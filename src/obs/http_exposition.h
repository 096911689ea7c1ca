// Minimal embedded HTTP exposition server: live introspection for a
// running PayLess instance.
//
// One background thread runs a blocking accept loop over a plain POSIX
// socket — no external dependencies, no event loop — and answers a small
// table of read-only GET/HEAD routes:
//
//   /metrics          Prometheus text exposition of the metrics registry
//   /metrics.json     the same registry as JSON
//   /ledger           the cost ledger (per-tenant / per-dataset spend)
//   /savings          the savings ledger (counterfactual vs actual, causes)
//   /store            semantic-store coverage summaries (injected provider)
//   /explain?q=...    EXPLAIN for a URL-encoded SQL statement (the handler
//                     is injected by the embedding layer, keeping this
//                     library below exec in the dependency order)
//
// Embedders may add further routes with AddRoute() before Start();
// PayLess::RegisterIntrospection adds /markets and /flightrecorder. A time
// series is a scraper of /metrics away.
//
// Scale intent: an operator's curl / a Prometheus scraper — one small
// response per request, connection closed after each (HTTP/1.1 with
// `Connection: close`). Correctness under concurrent queries comes from
// the underlying structures (metrics handles are atomics, the ledgers and
// registry lock internally), so serving never blocks the query path.
// Hygiene: HEAD answers headers-only with the GET Content-Length, request
// lines above 4 KiB get 414, and reads are capped at 8 KiB total.
#ifndef PAYLESS_OBS_HTTP_EXPOSITION_H_
#define PAYLESS_OBS_HTTP_EXPOSITION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/savings.h"

namespace payless::obs {

/// One route's answer: status code plus typed body. The server supplies
/// the reason phrase, Content-Length and connection framing.
struct HttpReply {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpReply Json(std::string body);
  static HttpReply Text(int status, std::string body);
};

class HttpExpositionServer {
 public:
  struct Options {
    /// Loopback by default: this is an admin surface, not a public API.
    std::string bind_address = "127.0.0.1";
    /// 0 asks the kernel for an ephemeral port; read it back via port().
    uint16_t port = 0;
  };

  /// Serves /explain?q=<sql>. Receives the decoded SQL text; returns the
  /// rendered plan or an error (mapped to HTTP 400). Must be thread-safe.
  using ExplainHandler = std::function<Result<std::string>(const std::string&)>;

  /// A route body builder: receives the raw (undecoded) query string.
  /// Must be thread-safe — the accept thread invokes it concurrently with
  /// whatever the embedding application is doing.
  using RouteHandler = std::function<HttpReply(const std::string& query)>;

  /// Either registry pointer may be null; the endpoint then answers 404.
  HttpExpositionServer(MetricsRegistry* metrics, CostLedger* ledger,
                       Options options);
  HttpExpositionServer(MetricsRegistry* metrics, CostLedger* ledger)
      : HttpExpositionServer(metrics, ledger, Options()) {}
  ~HttpExpositionServer();

  HttpExpositionServer(const HttpExpositionServer&) = delete;
  HttpExpositionServer& operator=(const HttpExpositionServer&) = delete;

  /// Install or replace a route. Path must start with '/' and contain no
  /// query string. Not thread-safe against in-flight requests: wire routes
  /// before Start().
  void AddRoute(const std::string& path, RouteHandler handler);

  /// Install before Start(); unset leaves /explain answering 404.
  void SetExplainHandler(ExplainHandler handler);

  /// Wires /savings. Unset answers 404.
  void SetSavingsLedger(SavingsLedger* savings);

  /// Wires /store. The provider returns the semantic store's StatsJson();
  /// injected as a closure so this library stays below semstore in the
  /// dependency order. Must be thread-safe.
  void SetStoreStatsProvider(std::function<std::string()> provider);

  /// Binds, listens and launches the accept thread. Fails (without leaking
  /// the socket) when the address cannot be bound.
  Status Start();

  /// Stops accepting, closes the socket and joins the thread. Idempotent;
  /// also called by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the kernel's pick when Options::port was 0). Valid
  /// after a successful Start().
  uint16_t port() const { return port_; }

 private:
  void InstallBuiltinRoutes();
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Builds the response for one request path (incl. query string).
  std::string Respond(const std::string& target) const;

  MetricsRegistry* metrics_;
  CostLedger* ledger_;
  Options options_;
  ExplainHandler explain_handler_;
  std::map<std::string, RouteHandler> routes_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Decodes %xx escapes and '+' (query-string convention). Bad escapes are
/// passed through verbatim.
std::string UrlDecode(const std::string& s);

/// Value of `key` in a raw query string ("a=1&b=2"), URL-decoded; empty
/// string when absent. The last occurrence wins.
std::string QueryParam(const std::string& query, const std::string& key);

}  // namespace payless::obs

#endif  // PAYLESS_OBS_HTTP_EXPOSITION_H_
