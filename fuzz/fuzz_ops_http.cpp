// Ops-plane HTTP harness: raw bytes -> parse_http_request ->
// ops_respond over a fixed fixture registry + flight recorder (the same
// pure path OpsServer::serve_one drives from the socket).
//
// Oracles beyond "no crash":
//   * parser acceptance implies structural validity: uppercase-alpha
//     method, target starting with '/', and request_path() yielding a
//     query-free prefix of the target.
//   * every accepted request maps to a response whose status is one of
//     {200, 404, 405, 503} and whose rendering is a well-formed
//     HTTP/1.0 message: status line, Content-Length matching the body,
//     blank line, body verbatim at the end.
//   * prometheus_escape_label_value leaves no raw '"', '\n', or
//     trailing lone backslash; prometheus_name emits only legal
//     Prometheus name characters.
//
// Input layout: byte 0 = flags (bit 0: readiness hook returns true),
// remaining bytes = the raw HTTP request head.
#include <cctype>
#include <string>

#include "common/obs/ops_server.h"
#include "fuzz_util.h"

using namespace lcrs;

namespace {

/// Shared fixture: a registry and recorder with one of everything, so
/// /metrics, /metrics.json and /tracez all traverse non-trivial render
/// paths on every execution.
struct Fixture {
  obs::Registry registry;
  obs::FlightRecorder recorder;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* fx = new Fixture;
    fx->registry.counter("edge.server.requests").add(3);
    fx->registry.gauge("edge.server.queue_depth").set(2.0);
    auto& h = fx->registry.histogram("edge.server.batch_size");
    h.record(1.0);
    h.record(7.0);
    fx->recorder.on_span(obs::SpanRecord{1, "edge.complete", 100, 900});
    fx->recorder.finish(1, false, "edge.served");
    fx->recorder.on_span(obs::SpanRecord{2, "client.network", 50, 5000});
    fx->recorder.finish(2, true, "client.error: fixture");
    return fx;
  }();
  return *f;
}

void check_response_rendering(const obs::HttpResponse& resp) {
  FUZZ_ASSERT(resp.status == 200 || resp.status == 404 ||
                  resp.status == 405 || resp.status == 503,
              "ops_respond produced a status outside its contract");
  const std::string rendered = obs::render_http_response(resp);
  FUZZ_ASSERT(rendered.rfind("HTTP/1.0 ", 0) == 0,
              "rendered response does not start with an HTTP/1.0 line");
  const std::size_t blank = rendered.find("\r\n\r\n");
  FUZZ_ASSERT(blank != std::string::npos,
              "rendered response has no head/body separator");
  FUZZ_ASSERT(rendered.size() == blank + 4 + resp.body.size() &&
                  rendered.compare(blank + 4, resp.body.size(), resp.body) ==
                      0,
              "rendered response body is not the handler body verbatim");
  const std::string len_header =
      "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  FUZZ_ASSERT(rendered.find(len_header) != std::string::npos,
              "Content-Length header disagrees with the body size");
}

void check_escape_helpers(const std::string& raw) {
  const std::string escaped = obs::prometheus_escape_label_value(raw);
  std::size_t i = 0;
  while (i < escaped.size()) {
    const char c = escaped[i];
    FUZZ_ASSERT(c != '\n', "escaped label value contains a raw newline");
    if (c == '\\') {
      FUZZ_ASSERT(i + 1 < escaped.size(),
                  "escaped label value ends in a lone backslash");
      const char next = escaped[i + 1];
      FUZZ_ASSERT(next == '\\' || next == '"' || next == 'n',
                  "escaped label value has an invalid escape sequence");
      i += 2;  // consume the pair
      continue;
    }
    FUZZ_ASSERT(c != '"', "escaped label value has an unescaped quote");
    ++i;
  }
  const std::string name = obs::prometheus_name(raw);
  for (char c : name) {
    FUZZ_ASSERT((std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == '_' || c == ':',
                "prometheus_name emitted an illegal character");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 16)) return 0;  // bound per-exec cost
  fuzz::FuzzInput in(data, size);
  const std::uint8_t flags = in.take_u8();
  const std::vector<std::uint8_t> rest = in.take_rest();
  const std::string head(rest.begin(), rest.end());

  check_escape_helpers(head);

  const std::optional<obs::HttpRequest> req = obs::parse_http_request(head);
  if (!req.has_value()) return 0;  // expected rejection of malformed heads

  for (char c : req->method) {
    FUZZ_ASSERT(c >= 'A' && c <= 'Z', "parser accepted a non-uppercase method");
  }
  FUZZ_ASSERT(!req->target.empty() && req->target[0] == '/',
              "parser accepted a target that does not start with '/'");
  const std::string path = obs::request_path(*req);
  FUZZ_ASSERT(path.find('?') == std::string::npos,
              "request_path left a query string attached");
  FUZZ_ASSERT(req->target.rfind(path, 0) == 0,
              "request_path is not a prefix of the raw target");

  const bool ready = (flags & 1) != 0;
  obs::OpsHooks hooks;
  hooks.registries = {&fixture().registry};
  hooks.recorder = &fixture().recorder;
  hooks.ready = [ready] { return ready; };
  const obs::HttpResponse resp = obs::ops_respond(*req, hooks);
  check_response_rendering(resp);
  if (path == "/healthz" && req->method == "GET") {
    FUZZ_ASSERT(resp.status == 200, "/healthz must always be 200 for GET");
  }
  if (path == "/readyz" && req->method == "GET") {
    FUZZ_ASSERT(resp.status == (ready ? 200 : 503),
                "/readyz disagrees with the readiness hook");
  }
  return 0;
}
