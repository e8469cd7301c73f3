#include "common/obs/ops_server.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "common/obs/metric_names.h"
#include "common/simd.h"

namespace lcrs::obs {

namespace {

constexpr std::size_t kMaxMethodBytes = 16;
constexpr std::size_t kMaxTargetBytes = 1024;

bool printable_ascii(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u >= 0x21 && u <= 0x7e;
}

const char* status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// Compact float text for exposition values and `le` labels. %.10g keeps
/// the 1-2-5 latency decades and the 0.05-step entropy grid exact while
/// never emitting locale- or precision-noise digits.
std::string prom_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string default_statusz() {
  std::ostringstream os;
  os << "{\"uptime_seconds\":" << prom_number(process_uptime_seconds())
     << ",\"simd_level\":\"" << simd::level_name(simd::active_level())
     << "\"}";
  return os.str();
}

Snapshot metrics_snapshot(const OpsHooks& hooks) {
  if (hooks.registries.empty()) return Registry::global().snapshot();
  std::vector<Snapshot> parts;
  parts.reserve(hooks.registries.size());
  for (const Registry* r : hooks.registries) parts.push_back(r->snapshot());
  return Snapshot::merge(parts);
}

const char* kIndexBody =
    "lcrs ops plane\n"
    "  /metrics       Prometheus text exposition\n"
    "  /metrics.json  JSON metrics snapshot\n"
    "  /healthz       liveness\n"
    "  /readyz        readiness (503 while draining)\n"
    "  /statusz       build/config/uptime (JSON)\n"
    "  /tracez        flight-recorder trace dump (JSON)\n";

}  // namespace

std::optional<HttpRequest> parse_http_request(const std::string& head) {
  // Request line: METHOD SP TARGET SP HTTP/D.D CRLF
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return std::nullopt;
  const std::string line = head.substr(0, line_end);

  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0 || sp1 > kMaxMethodBytes) {
    return std::nullopt;
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return std::nullopt;
  if (line.find(' ', sp2 + 1) != std::string::npos) return std::nullopt;

  HttpRequest req;
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);

  for (const char c : req.method) {
    if (c < 'A' || c > 'Z') return std::nullopt;
  }
  if (req.target.size() > kMaxTargetBytes) return std::nullopt;
  if (req.target.front() != '/') return std::nullopt;
  for (const char c : req.target) {
    if (!printable_ascii(c)) return std::nullopt;
  }
  // HTTP/<digit>.<digit> -- anything else (including ICE/1.0 smuggling
  // shapes) is rejected.
  if (version.size() != 8 || version.compare(0, 5, "HTTP/") != 0 ||
      std::isdigit(static_cast<unsigned char>(version[5])) == 0 ||
      version[6] != '.' ||
      std::isdigit(static_cast<unsigned char>(version[7])) == 0) {
    return std::nullopt;
  }

  // Header lines: `name: value` with a printable name; values may hold
  // horizontal tabs and spaces but no other control bytes. Obsolete
  // line folding (leading whitespace) is rejected outright.
  std::size_t pos = line_end + 2;
  while (pos < head.size()) {
    const std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) return std::nullopt;
    if (eol == pos) break;  // blank line: end of head
    const std::string header = head.substr(pos, eol - pos);
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos || colon == 0) return std::nullopt;
    for (std::size_t i = 0; i < colon; ++i) {
      if (!printable_ascii(header[i])) return std::nullopt;
    }
    for (std::size_t i = colon + 1; i < header.size(); ++i) {
      const char c = header[i];
      if (c != ' ' && c != '\t' && !printable_ascii(c)) return std::nullopt;
    }
    pos = eol + 2;
  }
  return req;
}

std::string request_path(const HttpRequest& req) {
  const std::size_t q = req.target.find('?');
  return q == std::string::npos ? req.target : req.target.substr(0, q);
}

std::string render_http_response(const HttpResponse& resp) {
  std::ostringstream os;
  os << "HTTP/1.0 " << resp.status << ' ' << status_reason(resp.status)
     << "\r\nContent-Type: " << resp.content_type
     << "\r\nContent-Length: " << resp.body.size()
     << "\r\nConnection: close\r\n\r\n"
     << resp.body;
  return os.str();
}

std::string prometheus_name(const std::string& name) {
  // Registry names are lint-restricted to [a-z0-9_.]; dots become
  // underscores and the shared `lcrs_` prefix namespaces the exporter.
  // Anything outside the Prometheus name alphabet is squashed to '_' as
  // a belt-and-braces measure -- the exposition must stay parseable even
  // if a name sneaks past the lint.
  std::string out = "lcrs_";
  out.reserve(name.size() + out.size());
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  return out;
}

std::string prometheus_escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 4);
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string render_prometheus(const Snapshot& snapshot) {
  std::ostringstream os;
  for (const auto& c : snapshot.counters) {
    const std::string n = prometheus_name(c.name);
    os << "# TYPE " << n << " counter\n" << n << ' ' << c.value << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    const std::string n = prometheus_name(g.name);
    os << "# TYPE " << n << " gauge\n"
       << n << ' ' << prom_number(g.value) << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    const std::string n = prometheus_name(h.name);
    os << "# TYPE " << n << " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      os << n << "_bucket{le=\""
         << prometheus_escape_label_value(prom_number(h.bounds[i])) << "\"} "
         << cumulative << '\n';
    }
    cumulative += h.counts.back();  // overflow bucket
    // `_count` is rendered as the +Inf cumulative rather than the
    // histogram's own count field: under concurrent recording the two
    // can momentarily disagree, and exposition conformance requires
    // bucket{le="+Inf"} == count exactly.
    os << n << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
       << n << "_sum " << prom_number(h.sum) << '\n'
       << n << "_count " << cumulative << '\n';
  }
  return os.str();
}

HttpResponse ops_respond(const HttpRequest& req, const OpsHooks& hooks) {
  HttpResponse resp;
  if (req.method != "GET") {
    resp.status = 405;
    resp.body = "method not allowed\n";
    return resp;
  }
  const FlightRecorder& recorder =
      hooks.recorder != nullptr ? *hooks.recorder : FlightRecorder::global();
  const std::string path = request_path(req);

  if (path == "/metrics") {
    update_process_gauges();
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = render_prometheus(metrics_snapshot(hooks));
  } else if (path == "/metrics.json") {
    update_process_gauges();
    resp.content_type = "application/json";
    resp.body = metrics_snapshot(hooks).to_json();
  } else if (path == "/healthz") {
    resp.body = "ok\n";
  } else if (path == "/readyz") {
    const bool ready = hooks.ready == nullptr || hooks.ready();
    resp.status = ready ? 200 : 503;
    resp.body = ready ? "ready\n" : "draining\n";
  } else if (path == "/statusz") {
    resp.content_type = "application/json";
    resp.body =
        hooks.status_json != nullptr ? hooks.status_json() : default_statusz();
  } else if (path == "/tracez") {
    resp.content_type = "application/json";
    resp.body = recorder.dump().to_json();
  } else if (path == "/") {
    resp.body = kIndexBody;
  } else {
    resp.status = 404;
    resp.body = "not found\n";
  }
  return resp;
}

void OpsOptions::validate() const {
  LCRS_CHECK(max_request_bytes >= 64, "max_request_bytes must be >= 64");
  LCRS_CHECK(request_timeout_ms > 0.0, "request_timeout_ms must be > 0");
}

OpsServer::OpsServer(std::uint16_t port, OpsHooks hooks, OpsOptions options)
    : hooks_(std::move(hooks)),
      opts_(options),
      listener_(port),
      requests_(Registry::global().counter(names::kOpsRequests)),
      http_errors_(Registry::global().counter(names::kOpsHttpErrors)) {
  opts_.validate();
  thread_ = std::thread([this] { serve_loop(); });
}

OpsServer::~OpsServer() { stop(); }

void OpsServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  listener_.shutdown_now();
  if (thread_.joinable()) thread_.join();
}

void OpsServer::serve_loop() {
  while (!stopping_.load()) {
    edge::Socket conn;
    try {
      conn = listener_.accept_one();
    } catch (const Error&) {
      if (stopping_.load()) break;
      continue;
    }
    if (!conn.valid()) break;  // listener shut down
    requests_.add();
    try {
      serve_one(conn);
    } catch (const Error&) {
      // Peer hung up mid-request / timed out: count it, keep serving.
      http_errors_.add();
    }
  }
}

void OpsServer::serve_one(edge::Socket& conn) {
  const edge::Deadline deadline =
      edge::Deadline::after_ms(opts_.request_timeout_ms);
  std::string buf;
  std::size_t head_end = std::string::npos;
  bool eof = false;
  while (buf.size() < opts_.max_request_bytes) {
    char chunk[512];
    const std::size_t want =
        std::min(sizeof(chunk), opts_.max_request_bytes - buf.size());
    const std::size_t n = conn.recv_some(chunk, want, deadline);
    if (n == 0) {
      eof = true;
      break;
    }
    buf.append(chunk, n);
    head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
  }

  HttpResponse resp;
  if (head_end != std::string::npos) {
    const auto req = parse_http_request(buf.substr(0, head_end + 4));
    if (req.has_value()) {
      resp = ops_respond(*req, hooks_);
    } else {
      resp.status = 400;
      resp.body = "bad request\n";
    }
  } else {
    // No blank line within the cap: header flood (431) or truncation (400).
    resp.status = eof ? 400 : 431;
    resp.body = eof ? "bad request\n" : "request head too large\n";
  }
  if (resp.status >= 400) http_errors_.add();
  const std::string wire = render_http_response(resp);
  conn.send_all(wire.data(), wire.size(), deadline);

  if (resp.status >= 400) {
    // Lingering close: the peer may still be mid-send (header flood,
    // oversized garbage). Closing with unread bytes queued would RST the
    // connection and wipe the response we just sent off the peer's
    // socket, so drain -- bounded in both bytes and time -- until EOF.
    try {
      char sink[1024];
      const edge::Deadline linger = edge::Deadline::after_ms(250.0);
      std::size_t drained = 0;
      while (drained < (1u << 20)) {
        const std::size_t n = conn.recv_some(sink, sizeof(sink), linger);
        if (n == 0) break;
        drained += n;
      }
    } catch (const Error&) {
      // Timeout or reset while draining; the response is already out.
    }
  }
}

HttpGetResult http_get(std::uint16_t port, const std::string& target,
                       double timeout_ms) {
  const edge::Deadline deadline = edge::Deadline::after_ms(timeout_ms);
  const edge::Socket sock = edge::connect_local(port);
  const std::string request = "GET " + target +
                              " HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  sock.send_all(request.data(), request.size(), deadline);

  std::string raw;
  for (;;) {
    char chunk[4096];
    const std::size_t n = sock.recv_some(chunk, sizeof(chunk), deadline);
    if (n == 0) break;
    raw.append(chunk, n);
    LCRS_CHECK(raw.size() <= (64u << 20), "ops response too large");
  }

  HttpGetResult result;
  const std::size_t head_end = raw.find("\r\n\r\n");
  LCRS_CHECK(head_end != std::string::npos,
             "malformed HTTP response (no header terminator)");
  result.head = raw.substr(0, head_end);
  result.body = raw.substr(head_end + 4);
  // Status line: HTTP/<v> SP <code> SP <reason>
  const std::size_t sp = result.head.find(' ');
  LCRS_CHECK(sp != std::string::npos && result.head.size() >= sp + 4,
             "malformed HTTP status line: " << result.head);
  result.status = std::stoi(result.head.substr(sp + 1, 3));
  return result;
}

}  // namespace lcrs::obs
