// Ops-plane integration tests: a live EdgeServer with the HTTP side
// port, scraped over real sockets. Covers the PR's acceptance criteria:
// under a 16-client burst /metrics stays conformant exposition and
// /tracez holds the slowest request's fully stitched client<->edge span
// timeline; plus /readyz flipping during drain, the OpsServer's
// hardened request handling (431 header floods, 400 garbage), and
// per-server scrapes when two servers share one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/obs/flight_recorder.h"
#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/obs/ops_server.h"
#include "edge/client.h"
#include "edge/server.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace lcrs::edge {
namespace {

core::CompositeNetwork make_net(Rng& rng) {
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  return core::CompositeNetwork::build(cfg, rng);
}

CompletionFn completion_for(core::CompositeNetwork& net) {
  return [&net](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  };
}

ServerOptions with_ops() {
  ServerOptions opts;
  opts.ops_port = 0;  // ephemeral side port
  return opts;
}

/// Value of an unlabelled series in a Prometheus exposition ("" when
/// the series is absent).
std::string prom_value(const std::string& body, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return body.substr(begin, body.find('\n', begin) - begin);
}

TEST(OpsHttp, LiveEndpointsServeAndReport) {
  obs::FlightRecorder::global().clear();
  Rng rng(11);
  core::CompositeNetwork net = make_net(rng);
  ServerOptions opts = with_ops();
  opts.num_workers = 3;  // off the defaults, so the checks below bite
  opts.max_batch = 5;
  EdgeServer server(0, completion_for(net), opts);
  ASSERT_NE(server.ops_port(), 0);

  // The reported serving shape is the one passed in.
  const obs::Snapshot shape = server.metrics().snapshot();
  const auto* pool = shape.find_gauge(obs::names::kServerWorkerPoolSize);
  const auto* max_batch = shape.find_gauge(obs::names::kServerMaxBatch);
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(max_batch, nullptr);
  EXPECT_EQ(pool->value, 3.0);
  EXPECT_EQ(max_batch->value, 5.0);

  EXPECT_EQ(obs::http_get(server.ops_port(), "/healthz").body, "ok\n");
  EXPECT_EQ(obs::http_get(server.ops_port(), "/readyz").status, 200);

  const auto metrics = obs::http_get(server.ops_port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"),
            std::string::npos);
  // Process-level gauges registered at startup are visible.
  EXPECT_NE(metrics.body.find("lcrs_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("lcrs_process_simd_level"), std::string::npos);
  EXPECT_NE(metrics.body.find("lcrs_edge_server_worker_pool_size"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("lcrs_edge_server_ready 1"), std::string::npos);

  const auto json = obs::http_get(server.ops_port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("process.uptime_seconds"), std::string::npos);

  const auto statusz = obs::http_get(server.ops_port(), "/statusz");
  EXPECT_EQ(statusz.status, 200);
  for (const char* key :
       {"\"uptime_seconds\"", "\"simd_level\"", "\"build\"", "\"port\"",
        "\"ops_port\"", "\"num_workers\"", "\"max_batch\"",
        "\"queue_capacity\"", "\"ready\""}) {
    EXPECT_NE(statusz.body.find(key), std::string::npos) << key;
  }
  EXPECT_NE(statusz.body.find("\"num_workers\":3,"), std::string::npos)
      << statusz.body;
  EXPECT_NE(statusz.body.find("\"max_batch\":5,"), std::string::npos)
      << statusz.body;

  EXPECT_EQ(obs::http_get(server.ops_port(), "/tracez").status, 200);
  EXPECT_EQ(obs::http_get(server.ops_port(), "/nope").status, 404);
  server.stop();
}

TEST(OpsHttp, ReadinessFlipsDuringDrain) {
  Rng rng(12);
  core::CompositeNetwork net = make_net(rng);
  EdgeServer server(0, completion_for(net), with_ops());

  EXPECT_EQ(obs::http_get(server.ops_port(), "/readyz").status, 200);
  EXPECT_EQ(obs::http_get(server.ops_port(), "/readyz").body, "ready\n");

  server.set_ready(false);  // drain announced; serving continues
  const auto draining = obs::http_get(server.ops_port(), "/readyz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");
  // The readiness gauge tracks the flip in the exposition too.
  EXPECT_NE(obs::http_get(server.ops_port(), "/metrics")
                .body.find("lcrs_edge_server_ready 0"),
            std::string::npos);
  // Still serving requests while draining -- readiness is advisory.
  Socket conn = connect_local(server.port());
  const Tensor shared =
      net.shared_stage().forward(Tensor::randn(Shape{1, 1, 28, 28}, rng),
                                 false);
  conn.send_frame(Frame{MsgType::kCompleteRequest,
                        make_complete_request(shared)});
  const auto reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kCompleteResponse);

  server.set_ready(true);
  EXPECT_EQ(obs::http_get(server.ops_port(), "/readyz").status, 200);
  server.stop();
}

TEST(OpsHttp, HardenedAgainstGarbageAndFloods) {
  Rng rng(13);
  core::CompositeNetwork net = make_net(rng);
  EdgeServer server(0, completion_for(net), with_ops());

  {  // Raw garbage gets 400, and the server keeps serving afterwards.
    const Socket sock = connect_local(server.ops_port());
    const std::string garbage = "\x16\x03\x01 not http at all\r\n\r\n";
    sock.send_all(garbage.data(), garbage.size(), Deadline::after_ms(1000));
    std::string raw;
    for (;;) {
      char chunk[512];
      const std::size_t n =
          sock.recv_some(chunk, sizeof(chunk), Deadline::after_ms(2000));
      if (n == 0) break;
      raw.append(chunk, n);
    }
    EXPECT_EQ(raw.rfind("HTTP/1.0 400 ", 0), 0u) << raw.substr(0, 40);
  }
  {  // A header flood larger than the head cap gets 431, not OOM.
    const Socket sock = connect_local(server.ops_port());
    std::string flood = "GET /metrics HTTP/1.0\r\n";
    while (flood.size() < 10000) flood += "X-Pad: aaaaaaaaaaaaaaaa\r\n";
    sock.send_all(flood.data(), flood.size(), Deadline::after_ms(1000));
    std::string raw;
    for (;;) {
      char chunk[512];
      const std::size_t n =
          sock.recv_some(chunk, sizeof(chunk), Deadline::after_ms(2000));
      if (n == 0) break;
      raw.append(chunk, n);
    }
    EXPECT_EQ(raw.rfind("HTTP/1.0 431 ", 0), 0u) << raw.substr(0, 40);
  }
  // The ops plane still answers cleanly after the abuse.
  EXPECT_EQ(obs::http_get(server.ops_port(), "/healthz").status, 200);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto* errors = snap.find_counter(obs::names::kOpsHttpErrors);
  ASSERT_NE(errors, nullptr);
  EXPECT_GE(errors->value, 2);
  server.stop();
}

TEST(OpsHttp, BurstOf16ClientsStitchedTracezAndConformantMetrics) {
  // The PR's acceptance scenario: 16 concurrent clients hammer the edge
  // server while scrapers hit /metrics and /tracez mid-burst. Afterwards
  // the flight recorder's slowest trace must carry the fully stitched
  // client<->edge timeline under one trace id.
  obs::FlightRecorder::global().clear();
  Rng rng(50);
  core::CompositeNetwork net = make_net(rng);
  ServerOptions opts = with_ops();
  opts.num_workers = 2;
  opts.max_batch = 8;
  EdgeServer server(0, completion_for(net), opts);

  constexpr int kClients = 16;
  constexpr int kRequestsEach = 4;
  std::atomic<int> failures{0};
  std::atomic<bool> scraping{true};
  std::thread scraper([&] {
    // Mid-burst scrapes: every pass must return parseable 200s.
    while (scraping.load()) {
      const auto m = obs::http_get(server.ops_port(), "/metrics");
      if (m.status != 200 || m.body.find("# TYPE") == std::string::npos) {
        ++failures;
      }
      if (obs::http_get(server.ops_port(), "/tracez").status != 200) {
        ++failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Export once on this thread: export_browser_model() populates the
  // network's packed-weight caches, so it must not race across clients.
  const webinfer::WebModel model = webinfer::export_browser_model(net, 1, 28, 28);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(1000 + c);
      webinfer::Engine engine{model};
      // tau = 0 forces the full collaborative path: client conv1 +
      // binary branch + network + edge completion spans per request.
      BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                           server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        const ClientResult r =
            client.classify(Tensor::randn(Shape{1, 1, 28, 28}, crng));
        if (r.exit_point != core::ExitPoint::kMainBranch) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  scraping.store(false);
  scraper.join();
  EXPECT_EQ(failures.load(), 0);

  // One more live scrape, then inspect the recorder directly.
  const auto tracez = obs::http_get(server.ops_port(), "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"slowest\""), std::string::npos);

  const obs::FlightDump dump = obs::FlightRecorder::global().dump();
  EXPECT_GE(dump.traces_finished, kClients * kRequestsEach);
  ASSERT_FALSE(dump.slowest.empty());

  const obs::FlightTrace* slow = dump.slowest_trace();
  ASSERT_NE(slow, nullptr);
  EXPECT_TRUE(slow->finished);
  std::set<std::string> stages;
  for (const auto& s : slow->spans) {
    EXPECT_EQ(s.trace_id, slow->trace_id);
    stages.insert(s.name);
  }
  // Fully stitched: client-side AND server-side stages under one id.
  EXPECT_TRUE(stages.count(obs::names::kSpanClientConv1));
  EXPECT_TRUE(stages.count(obs::names::kSpanClientBinaryBranch));
  EXPECT_TRUE(stages.count(obs::names::kSpanClientSerialize));
  EXPECT_TRUE(stages.count(obs::names::kSpanClientNetwork));
  EXPECT_TRUE(stages.count(obs::names::kSpanEdgeDeserialize));
  EXPECT_TRUE(stages.count(obs::names::kSpanEdgeComplete));
  EXPECT_TRUE(stages.count(obs::names::kSpanEdgeSerialize));
  // The stitched latency is the span extent, so it can be no smaller
  // than any single stage.
  for (const auto& s : slow->spans) {
    EXPECT_LE(s.duration_us(), slow->latency_us + 1e-6) << s.name;
  }
  // Outcome tags from both ends merged into the retained trace.
  EXPECT_NE(slow->tag.find("edge.served"), std::string::npos);
  EXPECT_NE(slow->tag.find("client.exit_main"), std::string::npos);
  EXPECT_FALSE(slow->error);

  server.stop();
  // stop() restored the prior (disabled) recording state.
  EXPECT_FALSE(obs::flight_recording_enabled());
  obs::FlightRecorder::global().clear();
}

TEST(OpsHttp, ClientErrorsLandInTheErrorRing) {
  // A client pointed at a dead port with fallback enabled must leave an
  // error-tagged trace in the recorder's all-error retention set.
  obs::ScopedFlightRecording on(true);
  obs::FlightRecorder::global().clear();

  Rng rng(14);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  RetryPolicy retry = RetryPolicy::no_retry();
  retry.deadline_ms = 500.0;
  retry.fallback_to_binary = true;
  // Port 1 is never listening on loopback.
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0}, 1, retry);
  const ClientResult r =
      client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  EXPECT_EQ(r.exit_point, core::ExitPoint::kBinaryBranchFallback);

  const obs::FlightDump dump = obs::FlightRecorder::global().dump();
  ASSERT_FALSE(dump.errors.empty());
  bool tagged = false;
  for (const auto& e : dump.errors) {
    if (e.trace_id == r.trace_id) {
      EXPECT_TRUE(e.error);
      EXPECT_NE(e.tag.find("client.fallback"), std::string::npos);
      tagged = true;
    }
  }
  EXPECT_TRUE(tagged);
  obs::FlightRecorder::global().clear();
}

TEST(OpsHttp, StandaloneOpsServerStopsCleanly) {
  obs::OpsHooks hooks;
  auto server = std::make_unique<obs::OpsServer>(0, hooks);
  const std::uint16_t port = server->port();
  ASSERT_NE(port, 0);
  EXPECT_EQ(obs::http_get(port, "/healthz").status, 200);
  server->stop();
  server->stop();  // idempotent
  server.reset();
  EXPECT_THROW(obs::http_get(port, "/healthz", 200.0), Error);
}

TEST(OpsHttp, EachServerScrapesOnlyItsOwnState) {
  // Two servers with ops planes in one process: every edge.server.*
  // series a scrape returns describes the server it was scraped from.
  Rng rng(16);
  core::CompositeNetwork net = make_net(rng);
  ServerOptions a_opts = with_ops();
  a_opts.num_workers = 3;
  ServerOptions b_opts = with_ops();
  b_opts.num_workers = 1;
  EdgeServer a(0, completion_for(net), a_opts);
  EdgeServer b(0, completion_for(net), b_opts);

  const auto serve = [&](EdgeServer& server, int n) {
    Socket conn = connect_local(server.port());
    for (int i = 0; i < n; ++i) {
      const Tensor shared = net.shared_stage().forward(
          Tensor::randn(Shape{1, 1, 28, 28}, rng), false);
      conn.send_frame(Frame{MsgType::kCompleteRequest,
                            make_complete_request(shared)});
      const auto reply = conn.recv_frame();
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(reply->type, MsgType::kCompleteResponse);
    }
    // The served counter moves after the reply is on the wire.
    for (int i = 0; i < 2000 && server.requests_served() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.requests_served(), n);
  };
  serve(a, 2);
  b.set_ready(false);  // B drains but keeps serving
  serve(b, 3);

  const std::string a_metrics = obs::http_get(a.ops_port(), "/metrics").body;
  EXPECT_EQ(obs::http_get(a.ops_port(), "/readyz").status, 200);
  EXPECT_EQ(prom_value(a_metrics, "lcrs_edge_server_ready"), "1");
  EXPECT_EQ(prom_value(a_metrics, "lcrs_edge_server_worker_pool_size"), "3");
  EXPECT_EQ(prom_value(a_metrics, "lcrs_edge_server_requests"), "2");

  const std::string b_metrics = obs::http_get(b.ops_port(), "/metrics").body;
  EXPECT_EQ(obs::http_get(b.ops_port(), "/readyz").status, 503);
  EXPECT_EQ(prom_value(b_metrics, "lcrs_edge_server_ready"), "0");
  EXPECT_EQ(prom_value(b_metrics, "lcrs_edge_server_worker_pool_size"), "1");
  EXPECT_EQ(prom_value(b_metrics, "lcrs_edge_server_requests"), "3");
  // Process-wide series still ride along on both scrapes.
  EXPECT_NE(prom_value(a_metrics, "lcrs_process_uptime_seconds"), "");
  EXPECT_NE(prom_value(b_metrics, "lcrs_process_uptime_seconds"), "");

  // Stop in reverse start order so each restores the flight-recorder
  // state it found.
  b.stop();
  a.stop();
  EXPECT_FALSE(obs::flight_recording_enabled());
}

}  // namespace
}  // namespace lcrs::edge
