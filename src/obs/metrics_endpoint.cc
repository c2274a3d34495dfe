#include "src/obs/metrics_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace orion {
namespace obs {

namespace {

// pass.wall_seconds -> orion_pass_wall_seconds (Prometheus metric names
// match [a-zA-Z_:][a-zA-Z0-9_:]*; the prefix guarantees a legal first char).
std::string Sanitize(const std::string& name) {
  std::string out = "orion_";
  out.reserve(name.size() + 6);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Upper bounds of WaitHistogram's log buckets, as Prometheus `le` labels.
const char* const kBucketLe[WaitHistogram::kNumBuckets] = {
    "0.0001", "0.001", "0.01", "0.1", "1", "+Inf"};

struct FamilyWriter {
  std::string out;
  std::set<std::string> seen;

  // Emits HELP/TYPE for `family` once; false when the family name already
  // appeared (sanitization collision or live/registry overlap) — the caller
  // must then skip its samples too, or the exposition would be invalid.
  bool Begin(const std::string& family, const char* type, const std::string& source) {
    if (!seen.insert(family).second) return false;
    out += "# HELP " + family + " Orion metric " + source + "\n";
    out += "# TYPE " + family + " " + type + "\n";
    return true;
  }
};

}  // namespace

std::string RenderPrometheus(const MetricsRegistry& registry, const Monitor* monitor) {
  FamilyWriter w;
  w.out.reserve(16 * 1024);

  // Live gauges first: when the registry snapshot also carries merged
  // "live.*" gauges from a previous pass boundary, the fresher copy wins and
  // the stale family is dropped by the dedupe.
  if (monitor != nullptr) {
    const std::vector<std::string> names = monitor->ProbeNames();
    const Monitor::Sample last = monitor->Latest();
    for (size_t i = 0; i < names.size() && i < last.values.size(); ++i) {
      const std::string full = "live." + names[i];
      const std::string family = Sanitize(full);
      if (!w.Begin(family, "gauge", full)) continue;
      w.out += family + " " + Num(last.values[i]) + "\n";
    }
    const std::string samples_family = "orion_live_monitor_samples";
    if (w.Begin(samples_family, "counter", "live.monitor.samples")) {
      w.out += samples_family + " " +
               std::to_string(monitor->samples_taken()) + "\n";
    }
  }

  for (const auto& [name, v] : registry.CountersSnapshot()) {
    const std::string family = Sanitize(name);
    if (!w.Begin(family, "counter", name)) continue;
    w.out += family + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : registry.GaugesSnapshot()) {
    const std::string family = Sanitize(name);
    if (!w.Begin(family, "gauge", name)) continue;
    w.out += family + " " + Num(v) + "\n";
  }
  for (const auto& [name, h] : registry.HistogramsSnapshot()) {
    const std::string family = Sanitize(name);
    if (!w.Begin(family, "histogram", name)) continue;
    u64 cumulative = 0;
    for (int b = 0; b < WaitHistogram::kNumBuckets; ++b) {
      cumulative += h.counts[b];
      w.out += family + "_bucket{le=\"" + kBucketLe[b] + "\"} " +
               std::to_string(cumulative) + "\n";
    }
    w.out += family + "_sum " + Num(h.total_seconds) + "\n";
    w.out += family + "_count " + std::to_string(h.total_count()) + "\n";
  }
  return w.out;
}

MetricsEndpoint::MetricsEndpoint(Monitor* monitor) : monitor_(monitor) {}

MetricsEndpoint::~MetricsEndpoint() { Stop(); }

StatusOr<int> MetricsEndpoint::Start(int port) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("metrics endpoint already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("metrics endpoint: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<u16>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Status::IoError("metrics endpoint: bind(127.0.0.1:" +
                           std::to_string(port) + ") failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IoError("metrics endpoint: listen() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IoError("metrics endpoint: getsockname() failed");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  ORION_LOG(kInfo) << "metrics endpoint listening on 127.0.0.1:" << port_;
  return port_;
}

void MetricsEndpoint::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

std::string MetricsEndpoint::RenderMetricsText() const {
  std::shared_ptr<const MetricsRegistry> reg = monitor_->PublishedRegistry();
  static const MetricsRegistry kEmpty;
  return RenderPrometheus(reg != nullptr ? *reg : kEmpty, monitor_);
}

void MetricsEndpoint::Serve() {
  trace::SetThreadLabel("mon");
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

void MetricsEndpoint::HandleConnection(int fd) {
  // Read the request head (we only need the request line; tiny requests
  // arrive in one segment from loopback clients, so a bounded read loop
  // until the blank line or 4 KiB suffices).
  char buf[4096];
  size_t have = 0;
  while (have < sizeof buf - 1) {
    const ssize_t n = ::recv(fd, buf + have, sizeof buf - 1 - have, 0);
    if (n <= 0) break;
    have += static_cast<size_t>(n);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr) break;
  }
  buf[have] = '\0';

  std::string body;
  const char* status_line = "HTTP/1.1 200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  if (std::strncmp(buf, "GET /metrics", 12) == 0) {
    body = RenderMetricsText();
  } else if (std::strncmp(buf, "GET /healthz", 12) == 0) {
    body = "ok\n";
    content_type = "text/plain; charset=utf-8";
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "not found\n";
    content_type = "text/plain; charset=utf-8";
  }

  char head[256];
  std::snprintf(head, sizeof head,
                "%s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status_line, content_type, body.size());
  std::string response = std::string(head) + body;
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent, response.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

StatusOr<std::string> HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("HttpGet: socket() failed");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<u16>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Status::IoError("HttpGet: connect(127.0.0.1:" + std::to_string(port) +
                           ") failed");
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("HttpGet: send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IoError("HttpGet: malformed response");
  }
  if (response.find("200") == std::string::npos ||
      response.find("200") > response.find("\r\n")) {
    return Status::IoError("HttpGet: non-200 response: " +
                           response.substr(0, response.find("\r\n")));
  }
  return response.substr(head_end + 4);
}

}  // namespace obs
}  // namespace orion
