// Ops-plane unit tests: the hardened HTTP request parser, Prometheus
// text exposition conformance (golden file + structural properties),
// ops_respond routing, the flight recorder's retention semantics, and
// the process-level gauges. No sockets here -- the live-endpoint and
// load behaviour is covered by test_ops_http.cpp (integration tier).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/obs/flight_recorder.h"
#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/obs/ops_server.h"
#include "common/obs/trace.h"
#include "common/simd.h"

namespace lcrs::obs {
namespace {

// ------------------------------------------------------------ HTTP parser

TEST(OpsHttpParser, AcceptsMinimalGet) {
  const auto req = parse_http_request("GET /metrics HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/metrics");
}

TEST(OpsHttpParser, AcceptsHeadersAndHttp11) {
  const auto req = parse_http_request(
      "GET /metrics.json HTTP/1.1\r\n"
      "Host: 127.0.0.1:9900\r\n"
      "User-Agent: Prometheus/2.0\r\n"
      "Accept: */*\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/metrics.json");
}

TEST(OpsHttpParser, StripsQueryString) {
  const auto req = parse_http_request("GET /metrics?format=x HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/metrics?format=x");
  EXPECT_EQ(request_path(*req), "/metrics");
}

TEST(OpsHttpParser, RejectsMalformedHeads) {
  const char* bad[] = {
      "",                                      // empty
      "GET /metrics\r\n\r\n",                  // missing version
      "get /metrics HTTP/1.0\r\n\r\n",         // lowercase method
      "GET metrics HTTP/1.0\r\n\r\n",          // relative target
      "GET /a b HTTP/1.0\r\n\r\n",             // extra token
      "GET /metrics ICE/1.0\r\n\r\n",          // non-HTTP version
      "GET /metrics HTTP/11\r\n\r\n",          // malformed version digits
      "GET /\x01 HTTP/1.0\r\n\r\n",            // control byte in target
      "GET / HTTP/1.0\r\nnocolon\r\n\r\n",     // colonless header
      "GET / HTTP/1.0\r\n: empty\r\n\r\n",     // empty header name
      "GET / HTTP/1.0\r\nX-A: b\r\n c\r\n\r\n",  // obsolete line folding
      "GET / HTTP/1.0\r\nX: a\x07z\r\n\r\n",   // control byte in value
  };
  for (const char* head : bad) {
    EXPECT_FALSE(parse_http_request(head).has_value()) << head;
  }
}

TEST(OpsHttpParser, RejectsOversizedMethodAndTarget) {
  const std::string long_method(17, 'G');
  EXPECT_FALSE(
      parse_http_request(long_method + " / HTTP/1.0\r\n\r\n").has_value());
  const std::string long_target = "/" + std::string(1025, 'a');
  EXPECT_FALSE(
      parse_http_request("GET " + long_target + " HTTP/1.0\r\n\r\n")
          .has_value());
}

TEST(OpsHttp, RenderResponseShape) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "not found\n";
  const std::string wire = render_http_response(resp);
  EXPECT_EQ(wire.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(wire.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - resp.body.size()), resp.body);
}

// -------------------------------------------------- Prometheus exposition

TEST(Prometheus, NameMapping) {
  EXPECT_EQ(prometheus_name("edge.server.requests"),
            "lcrs_edge_server_requests");
  EXPECT_EQ(prometheus_name("process.uptime_seconds"),
            "lcrs_process_uptime_seconds");
  // Belt-and-braces: characters outside the exposition alphabet are
  // squashed rather than emitted.
  EXPECT_EQ(prometheus_name("a b\"c"), "lcrs_a_b_c");
}

TEST(Prometheus, LabelValueEscaping) {
  EXPECT_EQ(prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label_value("a\nb"), "a\\nb");
}

TEST(Prometheus, GoldenExposition) {
  // One of each instrument kind with hand-computable values; the
  // exposition must match byte-for-byte. Registry snapshots sort by
  // name, so the golden is stable.
  Registry reg;
  reg.counter("edge.server.requests").add(3);
  reg.gauge("edge.server.queue_depth").set(2.5);
  auto& h = reg.histogram("edge.server.batch_size", {1.0, 2.5});
  h.record(0.5);
  h.record(2.0);
  h.record(7.0);

  const std::string expected =
      "# TYPE lcrs_edge_server_requests counter\n"
      "lcrs_edge_server_requests 3\n"
      "# TYPE lcrs_edge_server_queue_depth gauge\n"
      "lcrs_edge_server_queue_depth 2.5\n"
      "# TYPE lcrs_edge_server_batch_size histogram\n"
      "lcrs_edge_server_batch_size_bucket{le=\"1\"} 1\n"
      "lcrs_edge_server_batch_size_bucket{le=\"2.5\"} 2\n"
      "lcrs_edge_server_batch_size_bucket{le=\"+Inf\"} 3\n"
      "lcrs_edge_server_batch_size_sum 9.5\n"
      "lcrs_edge_server_batch_size_count 3\n";
  EXPECT_EQ(render_prometheus(reg.snapshot()), expected);
}

TEST(Prometheus, BucketsAreCumulativeAndInfEqualsCount) {
  // Structural conformance on the default latency buckets: bucket
  // counts never decrease with increasing `le`, and the +Inf bucket
  // equals _count exactly.
  Registry reg;
  auto& h = reg.histogram("edge.server.wait_us");
  for (int i = 0; i < 500; ++i) h.record(static_cast<double>(i * 37 % 20000));

  const std::string text = render_prometheus(reg.snapshot());
  std::int64_t prev = -1;
  std::int64_t inf_value = -1;
  std::size_t pos = 0;
  int buckets = 0;
  while ((pos = text.find("_bucket{le=\"", pos)) != std::string::npos) {
    const std::size_t close = text.find("\"} ", pos);
    ASSERT_NE(close, std::string::npos);
    const std::string le = text.substr(pos + 12, close - pos - 12);
    const std::int64_t value = std::stoll(text.substr(close + 3));
    EXPECT_GE(value, prev) << "bucket counts must be cumulative at le=" << le;
    prev = value;
    if (le == "+Inf") inf_value = value;
    ++buckets;
    pos = close;
  }
  EXPECT_GT(buckets, 10);
  ASSERT_NE(inf_value, -1);
  const std::size_t count_pos = text.find("_count ");
  ASSERT_NE(count_pos, std::string::npos);
  EXPECT_EQ(std::stoll(text.substr(count_pos + 7)), inf_value);
  EXPECT_EQ(inf_value, 500);
}

// ------------------------------------------------------------ ops_respond

OpsHooks fixture_hooks(const Registry* reg, const FlightRecorder* rec) {
  OpsHooks hooks;
  hooks.registries = {reg};
  hooks.recorder = rec;
  return hooks;
}

TEST(OpsRespond, RoutesEveryEndpoint) {
  Registry reg;
  reg.counter("edge.server.requests").add(7);
  FlightRecorder rec;
  rec.on_span(SpanRecord{42, "edge.complete", 100, 900});
  rec.finish(42, false, "edge.served");
  const OpsHooks hooks = fixture_hooks(&reg, &rec);

  const auto get = [&](const std::string& path) {
    return ops_respond(HttpRequest{"GET", path}, hooks);
  };

  const HttpResponse metrics = get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("lcrs_edge_server_requests 7"),
            std::string::npos);

  const HttpResponse json = get("/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("edge.server.requests"), std::string::npos);

  EXPECT_EQ(get("/healthz").body, "ok\n");
  EXPECT_EQ(get("/readyz").status, 200);  // no hook = always ready

  const HttpResponse tracez = get("/tracez");
  EXPECT_EQ(tracez.content_type, "application/json");
  EXPECT_NE(tracez.body.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(tracez.body.find("edge.served"), std::string::npos);

  EXPECT_NE(get("/statusz").body.find("uptime_seconds"), std::string::npos);
  EXPECT_NE(get("/").body.find("/tracez"), std::string::npos);
  EXPECT_EQ(get("/nope").status, 404);
  EXPECT_EQ(get("/metrics/").status, 404);
}

TEST(OpsRespond, ReadinessHookAndMethodGate) {
  bool ready = true;
  OpsHooks hooks;
  hooks.ready = [&ready] { return ready; };
  EXPECT_EQ(ops_respond(HttpRequest{"GET", "/readyz"}, hooks).status, 200);
  EXPECT_EQ(ops_respond(HttpRequest{"GET", "/readyz"}, hooks).body, "ready\n");
  ready = false;
  const HttpResponse draining = ops_respond(HttpRequest{"GET", "/readyz"},
                                            hooks);
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");

  EXPECT_EQ(ops_respond(HttpRequest{"POST", "/metrics"}, hooks).status, 405);
  EXPECT_EQ(ops_respond(HttpRequest{"DELETE", "/healthz"}, hooks).status, 405);
}

TEST(OpsRespond, StatusJsonHookWins) {
  OpsHooks hooks;
  hooks.status_json = [] { return std::string("{\"custom\":true}"); };
  EXPECT_EQ(ops_respond(HttpRequest{"GET", "/statusz"}, hooks).body,
            "{\"custom\":true}");
}

// -------------------------------------------------------- flight recorder

SpanRecord span(std::uint64_t id, const std::string& name,
                std::int64_t start_ns, std::int64_t end_ns) {
  return SpanRecord{id, name, start_ns, end_ns};
}

TEST(FlightRecorder, StitchedLatencyIsSpanExtent) {
  FlightRecorder rec;
  rec.on_span(span(1, "client.conv1", 1000, 2000));
  rec.on_span(span(1, "edge.complete", 1500, 9000));
  rec.on_span(span(1, "client.network", 1200, 11000));
  rec.finish(1, false, "edge.served");

  const FlightDump dump = rec.dump();
  ASSERT_EQ(dump.recent.size(), 1u);
  const FlightTrace& t = dump.recent[0];
  EXPECT_EQ(t.trace_id, 1u);
  // max(end) - min(start) = 11000 - 1000 = 10 us, not any single stage.
  EXPECT_DOUBLE_EQ(t.latency_us, 10.0);
  EXPECT_TRUE(t.finished);
  EXPECT_FALSE(t.error);
  // dump() sorts spans by start time regardless of arrival order.
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].name, "client.conv1");
  EXPECT_EQ(t.spans[1].name, "client.network");
  EXPECT_EQ(t.spans[2].name, "edge.complete");
}

TEST(FlightRecorder, SlowestNSurvivesChurn) {
  // 200 traces churn through small retention sets; the slowest set must
  // end up holding exactly the N largest latencies, descending, even
  // though the recent ring only remembers the last few.
  FlightRecorderOptions opts;
  opts.recent_capacity = 4;
  opts.slowest_capacity = 5;
  FlightRecorder rec(opts);

  // Latencies 1us..200us in a scrambled deterministic order.
  std::vector<int> latencies;
  for (int i = 0; i < 200; ++i) latencies.push_back((i * 73) % 200 + 1);
  for (int i = 0; i < 200; ++i) {
    const auto id = static_cast<std::uint64_t>(i + 1);
    rec.on_span(span(id, "edge.complete", 0, latencies[i] * 1000));
    rec.finish(id, false, "edge.served");
  }

  const FlightDump dump = rec.dump();
  EXPECT_EQ(dump.recent.size(), 4u);
  EXPECT_EQ(dump.traces_finished, 200);
  ASSERT_EQ(dump.slowest.size(), 5u);
  for (std::size_t i = 0; i < dump.slowest.size(); ++i) {
    EXPECT_DOUBLE_EQ(dump.slowest[i].latency_us,
                     static_cast<double>(200 - i));
  }
  ASSERT_NE(dump.slowest_trace(), nullptr);
  EXPECT_DOUBLE_EQ(dump.slowest_trace()->latency_us, 200.0);
}

TEST(FlightRecorder, ErrorsAlwaysRetained) {
  // Error traces are kept in their own ring even when they are neither
  // recent nor slow; beyond capacity the oldest error drops first.
  FlightRecorderOptions opts;
  opts.recent_capacity = 2;
  opts.slowest_capacity = 2;
  opts.error_capacity = 3;
  FlightRecorder rec(opts);

  // Three fast errors, then a flood of slow successes.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    rec.on_span(span(id, "client.network", 0, 1000));
    rec.finish(id, true, "client.error: boom" + std::to_string(id));
  }
  for (std::uint64_t id = 100; id < 150; ++id) {
    rec.on_span(span(id, "edge.complete", 0, 1000000));
    rec.finish(id, false, "edge.served");
  }

  const FlightDump dump = rec.dump();
  ASSERT_EQ(dump.errors.size(), 3u);  // oldest error (id 1) evicted
  EXPECT_EQ(dump.errors[0].trace_id, 2u);
  EXPECT_EQ(dump.errors[2].trace_id, 4u);
  for (const auto& e : dump.errors) {
    EXPECT_TRUE(e.error);
    EXPECT_NE(e.tag.find("client.error"), std::string::npos);
  }
  // The successes crowded the errors out of recent and slowest.
  for (const auto& t : dump.recent) EXPECT_FALSE(t.error);
  for (const auto& t : dump.slowest) EXPECT_FALSE(t.error);
}

TEST(FlightRecorder, FinishMergesBothEnds) {
  // Server and client both finish the same trace: error flags OR, tags
  // join, and the merged trace is retained once, not twice.
  FlightRecorder rec;
  rec.on_span(span(9, "edge.complete", 0, 5000));
  rec.finish(9, false, "edge.served");
  rec.finish(9, true, "client.fallback: timeout");

  const FlightDump dump = rec.dump();
  EXPECT_EQ(dump.traces_finished, 1);
  ASSERT_EQ(dump.recent.size(), 1u);
  const FlightTrace& t = dump.recent[0];
  EXPECT_TRUE(t.error);
  EXPECT_EQ(t.tag, "edge.served,client.fallback: timeout");
  // The late error also lands the trace in the error ring.
  ASSERT_EQ(dump.errors.size(), 1u);
  EXPECT_EQ(dump.errors[0].trace_id, 9u);
}

TEST(FlightRecorder, LateSpanMergesAndRecompetes) {
  // On loopback the client.network span often closes after the server
  // finishes the trace. The late span must extend the stitched latency
  // and re-compete for the slowest set.
  FlightRecorderOptions opts;
  opts.slowest_capacity = 1;
  FlightRecorder rec(opts);

  rec.on_span(span(1, "edge.complete", 0, 50000));
  rec.finish(1, false, "edge.served");
  rec.on_span(span(2, "edge.complete", 0, 10000));
  rec.finish(2, false, "edge.served");
  ASSERT_EQ(rec.dump().slowest.size(), 1u);
  EXPECT_EQ(rec.dump().slowest[0].trace_id, 1u);

  // Trace 2's network span arrives late and makes it the slowest.
  rec.on_span(span(2, "client.network", 0, 90000));
  const FlightDump dump = rec.dump();
  ASSERT_EQ(dump.slowest.size(), 1u);
  EXPECT_EQ(dump.slowest[0].trace_id, 2u);
  EXPECT_DOUBLE_EQ(dump.slowest[0].latency_us, 90.0);
  EXPECT_EQ(dump.slowest[0].spans.size(), 2u);
}

TEST(FlightRecorder, UnknownFinishKeepsTheTag) {
  FlightRecorder rec;
  rec.finish(77, true, "client.error: connect refused");
  const FlightDump dump = rec.dump();
  ASSERT_EQ(dump.errors.size(), 1u);
  EXPECT_EQ(dump.errors[0].trace_id, 77u);
  EXPECT_TRUE(dump.errors[0].spans.empty());
  EXPECT_DOUBLE_EQ(dump.errors[0].latency_us, 0.0);
}

TEST(FlightRecorder, PendingEvictionIsBoundedAndCounted) {
  FlightRecorderOptions opts;
  opts.max_pending = 8;
  FlightRecorder rec(opts);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    rec.on_span(span(id, "client.conv1", 0, 1000));
  }
  const FlightDump dump = rec.dump();
  EXPECT_EQ(dump.pending, 8);
  EXPECT_EQ(dump.traces_dropped, 12);
}

TEST(FlightRecorder, SpanCapPerTrace) {
  FlightRecorderOptions opts;
  opts.max_spans_per_trace = 4;
  FlightRecorder rec(opts);
  for (int i = 0; i < 10; ++i) {
    rec.on_span(span(5, "edge.complete", i * 10, i * 10 + 5));
  }
  rec.finish(5, false, "edge.served");
  const FlightDump dump = rec.dump();
  ASSERT_EQ(dump.recent.size(), 1u);
  EXPECT_EQ(dump.recent[0].spans.size(), 4u);
  EXPECT_EQ(dump.recent[0].spans_dropped, 6);
}

TEST(FlightRecorder, IgnoresTraceIdZeroAndClears) {
  FlightRecorder rec;
  rec.on_span(span(0, "untraced", 0, 1000));
  rec.finish(0, true, "ignored");
  EXPECT_EQ(rec.dump().pending, 0);
  EXPECT_EQ(rec.dump().traces_finished, 0);

  rec.on_span(span(1, "edge.complete", 0, 1000));
  rec.finish(1, false, "edge.served");
  EXPECT_EQ(rec.dump().traces_finished, 1);
  rec.clear();
  const FlightDump dump = rec.dump();
  EXPECT_TRUE(dump.recent.empty());
  EXPECT_TRUE(dump.slowest.empty());
  EXPECT_TRUE(dump.errors.empty());
  EXPECT_EQ(dump.pending, 0);
}

TEST(FlightRecorder, DumpJsonIsWellFormed) {
  FlightRecorder rec;
  rec.on_span(span(3, "edge.complete", 100, 900));
  rec.finish(3, true, "tag with \"quotes\" and \\slashes\\");
  const std::string json = rec.dump().to_json();
  EXPECT_NE(json.find("\"slowest\""), std::string::npos);
  EXPECT_NE(json.find("\"recent\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\slashes\\\\"), std::string::npos);
  // Balanced braces is a cheap proxy for structural validity here; the
  // integration test parses /tracez output with a real JSON parser via
  // scripts/validate_prometheus.py's sibling checks.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(FlightRecorder, GatingStopsTheGlobalTap) {
  FlightRecorder::global().clear();
  {
    ScopedFlightRecording off(false);
    Span s(next_trace_id(), names::kSpanClientConv1);
  }
  EXPECT_EQ(FlightRecorder::global().dump().pending, 0);

  ScopedFlightRecording on(true);
  const std::uint64_t id = next_trace_id();
  { Span s(id, names::kSpanClientConv1); }
  flight_record_finish(id, false, "edge.served");
  const FlightDump dump = FlightRecorder::global().dump();
  EXPECT_EQ(dump.pending, 0);
  bool found = false;
  for (const auto& t : dump.recent) found = found || t.trace_id == id;
  EXPECT_TRUE(found);
  FlightRecorder::global().clear();
}

// --------------------------------------------------------- process gauges

TEST(ProcessGauges, RegisteredAndRefreshed) {
  register_process_gauges();
  update_process_gauges();
  const Snapshot snap = Registry::global().snapshot();

  const auto* uptime = snap.find_gauge(names::kProcessUptimeSeconds);
  ASSERT_NE(uptime, nullptr);
  EXPECT_GT(uptime->value, 0.0);

  const auto* level = snap.find_gauge(names::kProcessSimdLevel);
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->value, static_cast<double>(
                              static_cast<int>(simd::active_level())));

  const auto* threads = snap.find_gauge(names::kProcessHardwareThreads);
  ASSERT_NE(threads, nullptr);
  EXPECT_GE(threads->value, 1.0);

  // The build label follows optimization, not NDEBUG (release builds
  // keep assertions on).
  const auto* build_debug = snap.find_gauge(names::kProcessBuildDebug);
  ASSERT_NE(build_debug, nullptr);
#ifdef __OPTIMIZE__
  EXPECT_EQ(build_debug->value, 0.0);
  EXPECT_TRUE(build_optimized());
#else
  EXPECT_EQ(build_debug->value, 1.0);
  EXPECT_FALSE(build_optimized());
#endif
}

TEST(ProcessGauges, SimdLevelTracksForcedOverride) {
  register_process_gauges();
  simd::ScopedForcedLevel force(simd::Level::kScalar);
  update_process_gauges();
  const Snapshot snap = Registry::global().snapshot();
  const auto* level = snap.find_gauge(names::kProcessSimdLevel);
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->value,
            static_cast<double>(static_cast<int>(simd::Level::kScalar)));
}

}  // namespace
}  // namespace lcrs::obs
