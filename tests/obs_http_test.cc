// The embedded HTTP exposition server, exercised over real loopback
// sockets: /metrics serves valid Prometheus text and /ledger valid JSON
// while eight client threads are running queries; /explain renders plans
// for URL-encoded SQL without spending; unknown paths, bad methods and
// malformed requests answer clean HTTP errors.
#include "obs/http_exposition.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/payless.h"
#include "market/data_market.h"
#include "obs/observability.h"

namespace payless::obs {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;

struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// A minimal HTTP/1.1 client: one request, read to EOF (the server closes
/// after each response). `raw` overrides the request line verbatim.
HttpReply Fetch(uint16_t port, const std::string& target,
                const std::string& raw = "") {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      raw.empty() ? "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n"
                  : raw;
  (void)::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t line_end = response.find("\r\n");
  if (line_end == std::string::npos) return reply;
  std::istringstream status_line(response.substr(0, line_end));
  std::string http;
  status_line >> http >> reply.status;
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  const std::string headers = response.substr(0, header_end);
  const size_t ct = headers.find("Content-Type: ");
  if (ct != std::string::npos) {
    reply.content_type =
        headers.substr(ct + 14, headers.find("\r\n", ct) - ct - 14);
  }
  reply.body = response.substr(header_end + 4);
  return reply;
}

/// Prometheus text format: every line is a comment (# HELP / # TYPE) or
/// `name[{labels}] value` with a numeric value.
void ExpectValidPrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "no value in: " << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_')
        << line;
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric value in: " << line;
  }
}

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(UrlDecode("SELECT+%2A+FROM%20T"), "SELECT * FROM T");
  EXPECT_EQ(UrlDecode("a%3D%27x%27"), "a='x'");
  // Bad escapes pass through verbatim instead of corrupting the query.
  EXPECT_EQ(UrlDecode("100%"), "100%");
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
}

class HttpExpositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"EHR", 1.0, 100}).ok());
    TableDef pollution;
    pollution.name = "Pollution";
    pollution.dataset = "EHR";
    pollution.columns = {
        ColumnDef::Free("Rank", ValueType::kInt64,
                        AttrDomain::Numeric(1, 2000)),
        ColumnDef::Output("Score", ValueType::kDouble)};
    pollution.cardinality = 2000;
    ASSERT_TRUE(cat_.RegisterTable(pollution).ok());

    market_ = std::make_unique<market::DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t rank = 1; rank <= 2000; ++rank) {
      rows.push_back(Row{Value(rank), Value(static_cast<double>(rank) / 10)});
    }
    ASSERT_TRUE(market_->HostTable("Pollution", std::move(rows)).ok());
  }

  catalog::Catalog cat_;
  std::unique_ptr<market::DataMarket> market_;
};

TEST_F(HttpExpositionTest, ServesMetricsAndLedgerUnderConcurrentQueries) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);

  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  server.SetExplainHandler([&client](const std::string& sql) {
    return client.ExplainText(sql);
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  // Eight query threads spend against the market while the admin port is
  // being scraped — the acceptance scenario for the live endpoint.
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int64_t lo = 1 + ((t * kQueriesPerThread + i) * 97) % 1500;
        if (!client
                 .Query("SELECT * FROM Pollution WHERE Rank >= ? AND "
                        "Rank <= ?",
                        {Value(lo), Value(lo + 99)})
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }

  int metrics_ok = 0;
  int ledger_ok = 0;
  for (int i = 0; i < 20; ++i) {
    const HttpReply metrics = Fetch(server.port(), "/metrics");
    if (metrics.status == 200) {
      ++metrics_ok;
      EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
      ExpectValidPrometheusText(metrics.body);
      EXPECT_NE(metrics.body.find("payless_queries_total"),
                std::string::npos);
    }
    const HttpReply ledger = Fetch(server.port(), "/ledger");
    if (ledger.status == 200) {
      ++ledger_ok;
      EXPECT_NE(ledger.content_type.find("application/json"),
                std::string::npos);
      EXPECT_EQ(ledger.body.front(), '{');
    }
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(metrics_ok, 20);
  EXPECT_EQ(ledger_ok, 20);

  // After the storm: the scrape counts every query, and the ledger holds
  // the spend they caused.
  const HttpReply after = Fetch(server.port(), "/metrics");
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("payless_queries_total " +
                            std::to_string(kThreads * kQueriesPerThread)),
            std::string::npos)
      << after.body;
  const HttpReply ledger_after = Fetch(server.port(), "/ledger");
  ASSERT_EQ(ledger_after.status, 200);
  EXPECT_NE(ledger_after.body.find("EHR"), std::string::npos);

  const HttpReply json = Fetch(server.port(), "/metrics.json");
  ASSERT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("payless_queries_total"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST_F(HttpExpositionTest, ExplainEndpointRendersWithoutSpending) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);

  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  server.SetExplainHandler([&client](const std::string& sql) {
    return client.ExplainText(sql);
  });
  ASSERT_TRUE(server.Start().ok());

  const HttpReply ok = Fetch(
      server.port(),
      "/explain?q=SELECT+%2A+FROM+Pollution+WHERE+Rank+%3E%3D+1+AND+"
      "Rank+%3C%3D+50");
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("Plan[cost="), std::string::npos) << ok.body;
  EXPECT_EQ(client.meter().total_transactions(), 0);

  // Malformed SQL is a client error, not a crash or a 500.
  const HttpReply bad = Fetch(server.port(), "/explain?q=SELEC+nope");
  EXPECT_EQ(bad.status, 400);
  const HttpReply missing = Fetch(server.port(), "/explain?other=1");
  EXPECT_EQ(missing.status, 400);
}

TEST_F(HttpExpositionTest, ErrorPathsAnswerCleanHttp) {
  Observability obs;
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_EQ(Fetch(server.port(), "/nope").status, 404);
  // No handler installed: /explain is 404, not a null-deref.
  EXPECT_EQ(Fetch(server.port(), "/explain?q=SELECT").status, 404);
  const HttpReply post =
      Fetch(server.port(), "/",
            "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(post.status, 405);
  const HttpReply garbage =
      Fetch(server.port(), "/", "garbage-without-spaces\r\n\r\n");
  EXPECT_EQ(garbage.status, 400);

  // Starting twice is refused; a second server gets its own port.
  EXPECT_FALSE(server.Start().ok());
  HttpExpositionServer other(&obs.metrics, &obs.ledger);
  ASSERT_TRUE(other.Start().ok());
  EXPECT_NE(other.port(), server.port());
}

TEST_F(HttpExpositionTest, NullRegistriesAnswer404) {
  HttpExpositionServer server(nullptr, nullptr);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Fetch(server.port(), "/metrics").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/metrics.json").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/ledger").status, 404);
  // Optional routes not wired: 404, not a crash.
  EXPECT_EQ(Fetch(server.port(), "/savings").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/store").status, 404);
}

TEST_F(HttpExpositionTest, ContentTypesMatchEachRoute) {
  Observability obs;
  obs.metrics.GetCounter("payless_queries_total")->Add(1);
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  server.SetSavingsLedger(&obs.savings);
  server.SetStoreStatsProvider([] { return std::string("{\"tables\":[]}"); });
  ASSERT_TRUE(server.Start().ok());

  const auto expect_type = [&](const std::string& target,
                               const std::string& type) {
    const HttpReply reply = Fetch(server.port(), target);
    EXPECT_EQ(reply.status, 200) << target;
    EXPECT_NE(reply.content_type.find(type), std::string::npos)
        << target << " served " << reply.content_type;
  };
  expect_type("/metrics", "text/plain");
  expect_type("/metrics.json", "application/json");
  expect_type("/ledger", "application/json");
  expect_type("/savings", "application/json");
  expect_type("/store", "application/json");
  // Errors are plain text.
  const HttpReply nope = Fetch(server.port(), "/nope");
  EXPECT_EQ(nope.status, 404);
  EXPECT_NE(nope.content_type.find("text/plain"), std::string::npos);
}

TEST_F(HttpExpositionTest, HeadAnswersHeadersWithGetContentLength) {
  Observability obs;
  obs.metrics.GetCounter("payless_queries_total")->Add(1);
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  ASSERT_TRUE(server.Start().ok());

  const HttpReply get = Fetch(server.port(), "/metrics");
  ASSERT_EQ(get.status, 200);
  ASSERT_FALSE(get.body.empty());

  const HttpReply head = Fetch(server.port(), "/",
                               "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty()) << "HEAD must not carry a body";
  // HEAD on an unknown path mirrors the GET status.
  const HttpReply head404 = Fetch(server.port(), "/",
                                  "HEAD /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(head404.status, 404);
  EXPECT_TRUE(head404.body.empty());
}

TEST_F(HttpExpositionTest, OversizedRequestLinesAnswer414) {
  Observability obs;
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  ASSERT_TRUE(server.Start().ok());

  // Request line longer than the 4 KiB cap (but with a CRLF in reach).
  const std::string long_line =
      "GET /metrics?pad=" + std::string(5000, 'x') +
      " HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(Fetch(server.port(), "/", long_line).status, 414);

  // No CRLF within the 8 KiB read cap at all: still a clean 414, and the
  // accept thread keeps serving afterwards.
  EXPECT_EQ(Fetch(server.port(), "/", std::string(9000, 'a')).status, 414);
  EXPECT_EQ(Fetch(server.port(), "/metrics").status, 200);
}

TEST_F(HttpExpositionTest, MalformedQueryStringsNeverCrashOrBlock) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  client.RegisterIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());

  // Adversarial query strings on the parameterized route: bad URL
  // encoding, stray separators, nul-ish escapes, nonsense SQL. Every
  // answer is a clean 4xx; none may wedge the accept thread.
  const std::vector<std::string> nasty = {
      "/explain?q=",
      "/explain?q=%",
      "/explain?q=%zz%%%",
      "/explain?q=SELECT%20%00%01",
      "/explain?=&&&=",
      "/explain?q=" + std::string(5000, 'Z'),
  };
  for (const std::string& target : nasty) {
    const HttpReply reply = Fetch(server.port(), target);
    EXPECT_GE(reply.status, 400) << target;
    EXPECT_LT(reply.status, 500) << target;
  }
  // The accept thread survived the ordeal.
  EXPECT_EQ(Fetch(server.port(), "/metrics").status, 200);
}

TEST_F(HttpExpositionTest, LatencyAndFlightRecorderRoutesServeJson) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  client.RegisterIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());

  // A query so every payload has content: the market bills, histograms
  // record stages and the flight recorder holds the query's entry.
  ASSERT_TRUE(client
                  .Query("SELECT * FROM Pollution WHERE Rank >= ? AND "
                         "Rank <= ?",
                         {Value(int64_t{1}), Value(int64_t{50})})
                  .ok());
  ASSERT_GT(client.meter().total_transactions(), 0);

  // A single market is the router's one endpoint "": /markets shows its
  // whole bill and its RTT tail.
  const HttpReply markets = Fetch(server.port(), "/markets");
  ASSERT_EQ(markets.status, 200);
  EXPECT_NE(markets.content_type.find("application/json"),
            std::string::npos);
  EXPECT_EQ(markets.body.front(), '{');
  EXPECT_EQ(markets.body.back(), '}');
  EXPECT_NE(markets.body.find("\"federated\":false"), std::string::npos)
      << markets.body;
  EXPECT_NE(markets.body.find(
                "{\"id\":\"\",\"transactions\":" +
                std::to_string(client.meter().total_transactions()) + ","),
            std::string::npos)
      << markets.body;
  EXPECT_NE(markets.body.find("\"rtt_p50_us\""), std::string::npos);

  // Every registry histogram, with its tail, is on /metrics.json.
  const HttpReply metrics = Fetch(server.port(), "/metrics.json");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("payless_latency_e2e_micros"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("\"p99\""), std::string::npos);

  const HttpReply recorder = Fetch(server.port(), "/flightrecorder");
  ASSERT_EQ(recorder.status, 200);
  EXPECT_NE(recorder.content_type.find("application/json"),
            std::string::npos);
  EXPECT_EQ(recorder.body.front(), '{');
  EXPECT_EQ(recorder.body.back(), '}');
  EXPECT_NE(recorder.body.find("\"kind\":\"query\""), std::string::npos)
      << recorder.body;
  EXPECT_NE(recorder.body.find("\"stages\":{"), std::string::npos);

  // No route serves a recorded workload: it answers 404 like any unknown
  // target.
  const HttpReply retired = Fetch(server.port(), "/",
                                  "GET /workload HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(retired.status, 404);

  // HTTP hygiene: HEAD mirrors GET without a body; oversized request
  // lines answer 414; query-string noise never wedges the routes.
  for (const char* route : {"/markets", "/flightrecorder"}) {
    const HttpReply head =
        Fetch(server.port(), "/",
              "HEAD " + std::string(route) + " HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(head.status, 200) << route;
    EXPECT_TRUE(head.body.empty()) << route;
    const std::string long_line = "GET " + std::string(route) + "?pad=" +
                                  std::string(5000, 'x') +
                                  " HTTP/1.1\r\nHost: x\r\n\r\n";
    EXPECT_EQ(Fetch(server.port(), "/", long_line).status, 414) << route;
    for (const char* noise : {"?q=%zz%%%", "?=&&&=", "?name=%00"}) {
      const HttpReply fuzzed = Fetch(server.port(), route + std::string(noise));
      EXPECT_GE(fuzzed.status, 200) << route << noise;
      EXPECT_LT(fuzzed.status, 500) << route << noise;
    }
  }
  // The accept thread survived.
  EXPECT_EQ(Fetch(server.port(), "/markets").status, 200);
}

TEST_F(HttpExpositionTest, JsonRoutesServeUnderLoad) {
  Observability obs;
  PayLessConfig config;
  config.observability = &obs;
  PayLess client(&cat_, market_.get(), config);
  HttpExpositionServer server(&obs.metrics, &obs.ledger);
  client.RegisterIntrospection(&server);
  ASSERT_TRUE(server.Start().ok());

  // Eight query threads spend while the JSON routes are fetched: every
  // payload stays well-formed mid-storm.
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const int64_t lo = 1 + ((t * 8 + i) * 113) % 1600;
        if (!client
                 .Query("SELECT * FROM Pollution WHERE Rank >= ? AND "
                        "Rank <= ?",
                        {Value(lo), Value(lo + 79)})
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < 10; ++i) {
    for (const char* target : {"/metrics.json", "/savings", "/store"}) {
      const HttpReply payload = Fetch(server.port(), target);
      ASSERT_EQ(payload.status, 200) << target;
      ASSERT_FALSE(payload.body.empty()) << target;
      EXPECT_EQ(payload.body.front(), '{') << target;
      EXPECT_EQ(payload.body.back(), '}') << target;
    }
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // After the storm, the store and savings payloads reflect the activity.
  const HttpReply store = Fetch(server.port(), "/store");
  EXPECT_NE(store.body.find("Pollution"), std::string::npos) << store.body;
  const HttpReply savings = Fetch(server.port(), "/savings");
  EXPECT_NE(savings.body.find("counterfactual"), std::string::npos)
      << savings.body;
  EXPECT_TRUE(obs.savings.Reconciles());
}

}  // namespace
}  // namespace payless::obs
