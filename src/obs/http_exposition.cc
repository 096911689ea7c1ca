#include "obs/http_exposition.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace payless::obs {

namespace {

// Request hygiene caps: a request line longer than kMaxRequestLine gets
// 414; a connection never buffers more than kMaxRequestBytes.
constexpr size_t kMaxRequestLine = 4096;
constexpr size_t kMaxRequestBytes = 8192;

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 414:
      return "URI Too Long";
    default:
      return "Error";
  }
}

std::string RenderReply(const HttpReply& reply) {
  std::string out = "HTTP/1.1 " + std::to_string(reply.status) + " " +
                    ReasonPhrase(reply.status) +
                    "\r\nContent-Type: " + reply.content_type +
                    "\r\nContent-Length: " +
                    std::to_string(reply.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += reply.body;
  return out;
}

HttpReply NotFound() { return HttpReply::Text(404, "not found\n"); }

/// Writes the whole buffer, riding out EINTR and partial writes.
void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer went away; nothing useful to do
    }
    off += static_cast<size_t>(n);
  }
}

}  // namespace

HttpReply HttpReply::Json(std::string body) {
  return HttpReply{200, "application/json", std::move(body)};
}

HttpReply HttpReply::Text(int status, std::string body) {
  return HttpReply{status, "text/plain; charset=utf-8", std::move(body)};
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      const int hi = HexDigit(s[i + 1]);
      const int lo = HexDigit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string QueryParam(const std::string& query, const std::string& key) {
  std::string value;
  const std::string prefix = key + "=";
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    if (pair.rfind(prefix, 0) == 0) {
      value = UrlDecode(pair.substr(prefix.size()));
    }
    pos = amp + 1;
  }
  return value;
}

HttpExpositionServer::HttpExpositionServer(MetricsRegistry* metrics,
                                           CostLedger* ledger, Options options)
    : metrics_(metrics), ledger_(ledger), options_(std::move(options)) {
  InstallBuiltinRoutes();
}

HttpExpositionServer::~HttpExpositionServer() { Stop(); }

void HttpExpositionServer::InstallBuiltinRoutes() {
  routes_["/metrics"] = [this](const std::string&) {
    if (metrics_ == nullptr) return NotFound();
    return HttpReply{200, "text/plain; version=0.0.4; charset=utf-8",
                     metrics_->ToPrometheusText()};
  };
  routes_["/metrics.json"] = [this](const std::string&) {
    if (metrics_ == nullptr) return NotFound();
    return HttpReply::Json(metrics_->ToJson());
  };
  routes_["/ledger"] = [this](const std::string&) {
    if (ledger_ == nullptr) return NotFound();
    return HttpReply::Json(ledger_->ToJson());
  };
  routes_["/explain"] = [this](const std::string& query) {
    if (!explain_handler_) return NotFound();
    const std::string sql = QueryParam(query, "q");
    if (sql.empty()) {
      return HttpReply::Text(400, "missing q= parameter\n");
    }
    if (sql.size() > kMaxRequestLine) {
      return HttpReply::Text(400, "q= parameter too long\n");
    }
    const Result<std::string> rendered = explain_handler_(sql);
    if (!rendered.ok()) {
      return HttpReply::Text(400, rendered.status().ToString() + "\n");
    }
    return HttpReply::Text(200, *rendered);
  };
}

void HttpExpositionServer::AddRoute(const std::string& path,
                                    RouteHandler handler) {
  routes_[path] = std::move(handler);
}

void HttpExpositionServer::SetExplainHandler(ExplainHandler handler) {
  explain_handler_ = std::move(handler);
}

void HttpExpositionServer::SetSavingsLedger(SavingsLedger* savings) {
  if (savings == nullptr) {
    routes_.erase("/savings");
    return;
  }
  routes_["/savings"] = [savings](const std::string&) {
    return HttpReply::Json(savings->ToJson());
  };
}

void HttpExpositionServer::SetStoreStatsProvider(
    std::function<std::string()> provider) {
  if (!provider) {
    routes_.erase("/store");
    return;
  }
  routes_["/store"] = [provider = std::move(provider)](const std::string&) {
    return HttpReply::Json(provider());
  };
}

Status HttpExpositionServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("exposition server already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind(" + options_.bind_address + ":" +
                            std::to_string(options_.port) + "): " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname(): " + err);
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpExpositionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocking accept(); close() alone is not reliably
  // enough on all platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpExpositionServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // socket shut down (Stop) or unrecoverable
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpExpositionServer::HandleConnection(int fd) {
  // One small request; only the request line matters. kMaxRequestBytes
  // caps any garbage a misbehaving client throws at the admin port.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) {
    if (request.size() >= kMaxRequestBytes) {
      WriteAll(fd, RenderReply(
                       HttpReply::Text(414, "request line too long\n")));
    }
    return;  // nothing parseable arrived
  }
  if (line_end > kMaxRequestLine) {
    WriteAll(fd,
             RenderReply(HttpReply::Text(414, "request line too long\n")));
    return;
  }

  const std::string line = request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    WriteAll(fd,
             RenderReply(HttpReply::Text(400, "malformed request line\n")));
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET" && method != "HEAD") {
    WriteAll(fd,
             RenderReply(HttpReply::Text(405, "only GET is supported\n")));
    return;
  }
  std::string response = Respond(target);
  if (method == "HEAD") {
    // Headers only, Content-Length of the would-have-been GET body.
    const size_t header_end = response.find("\r\n\r\n");
    if (header_end != std::string::npos) response.resize(header_end + 4);
  }
  WriteAll(fd, response);
}

std::string HttpExpositionServer::Respond(const std::string& target) const {
  const size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);

  const auto it = routes_.find(path);
  if (it == routes_.end()) return RenderReply(NotFound());
  return RenderReply(it->second(query));
}

}  // namespace payless::obs
