// Ops plane: a tiny HTTP/1.0 server exposing the process's metrics,
// health, status, and flight-recorder traces on a side port.
//
// Endpoints (all GET, Connection: close):
//   /metrics       Prometheus text exposition of the merged registries
//   /metrics.json  the same merged snapshot as JSON (Snapshot::to_json)
//   /healthz       liveness: 200 "ok" while the server thread runs
//   /readyz        readiness: 200 while serving, 503 during drain/stop
//   /statusz       build info, SIMD level, uptime, serving config (JSON)
//   /tracez        FlightRecorder dump (slowest-N / errors / recent)
//   /              plain-text index of the above
//
// Design: one accept+serve thread over the existing edge/tcp socket
// layer. Scrapes are rare (seconds apart) and tiny; a thread pool would
// be pure complexity here. The request parser is deliberately hardened
// -- bounded head size, strict request line, printable-ASCII-only --
// because the port may be reachable by more than the scraper; it is
// pure (no I/O) so fuzz/fuzz_ops_http.cpp can drive it byte-for-byte.
//
// The pure helpers (parse_http_request / ops_respond / render_*) are the
// testable surface; OpsServer is a thin socket loop around them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/obs/flight_recorder.h"
#include "common/obs/metrics.h"
#include "edge/tcp.h"

namespace lcrs::obs {

/// A parsed (and validated) HTTP request head.
struct HttpRequest {
  std::string method;  // uppercase ASCII letters, e.g. "GET"
  std::string target;  // starts with '/', query string still attached
};

/// Strict HTTP/1.x request-head parser. `head` is everything up to and
/// including the blank line. Returns nullopt on anything malformed:
/// bad request line shape, non-HTTP version token, control bytes,
/// oversized method/target, malformed header lines.
std::optional<HttpRequest> parse_http_request(const std::string& head);

/// The routing target with any query string stripped.
std::string request_path(const HttpRequest& req);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Serializes status line + headers + body (HTTP/1.0, Connection: close).
std::string render_http_response(const HttpResponse& resp);

/// Maps a registry metric name ("edge.server.requests") to a Prometheus
/// metric name ("lcrs_edge_server_requests").
std::string prometheus_name(const std::string& name);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prometheus_escape_label_value(const std::string& value);

/// Renders a full snapshot in Prometheus text exposition format:
/// counters as `counter`, gauges as `gauge`, histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count` (the `+Inf`
/// bucket equals `_count` by construction).
std::string render_prometheus(const Snapshot& snapshot);

/// Everything the endpoint handlers read. Defaults wire up the
/// process-global registry and flight recorder; tests substitute their
/// own. /metrics renders the Snapshot::merge of `registries`, so a name
/// registered in two of them fails the scrape instead of duplicating a
/// series.
struct OpsHooks {
  std::vector<const Registry*> registries;     // empty = Registry::global()
  const FlightRecorder* recorder = nullptr;    // nullptr = global()
  std::function<bool()> ready;                 // nullptr = always ready
  std::function<std::string()> status_json;    // nullptr = minimal statusz
};

/// Pure request -> response routing (no sockets; shared by OpsServer,
/// tests, and the fuzz harness).
HttpResponse ops_respond(const HttpRequest& req, const OpsHooks& hooks);

struct OpsOptions {
  std::size_t max_request_bytes = 8192;  // request head cap -> 431 beyond
  double request_timeout_ms = 2000.0;    // read+write budget of one connection

  void validate() const;
};

class OpsServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serve thread.
  explicit OpsServer(std::uint16_t port, OpsHooks hooks = {},
                     OpsOptions options = {});
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Idempotent: shuts the listener down and joins the serve thread.
  void stop();

 private:
  void serve_loop();
  void serve_one(edge::Socket& conn);

  OpsHooks hooks_;
  OpsOptions opts_;
  edge::Listener listener_;
  std::atomic<bool> stopping_{false};
  Counter& requests_;     // obs.ops.requests (global registry)
  Counter& http_errors_;  // obs.ops.http_errors
  std::thread thread_;
};

/// Minimal loopback HTTP/1.0 GET -- the scrape client used by
/// `lcrs_tool scrape`, the benches, and the integration tests.
struct HttpGetResult {
  int status = 0;
  std::string body;
  std::string head;  // raw status line + headers
};
HttpGetResult http_get(std::uint16_t port, const std::string& target,
                       double timeout_ms = 2000.0);

}  // namespace lcrs::obs
