// Edge runtime tests: protocol frames, TCP transport, the live
// EdgeServer/BrowserClient loop, agreement between the socket runtime and
// the in-process Algorithm 2, and the simulated LocalRuntime (src/baselines).
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <set>
#include <thread>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "common/sync.h"

#include "baselines/local_runtime.h"
#include "core/inference.h"
#include "data/synthetic.h"
#include "edge/client.h"
#include "edge/server.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace lcrs::edge {
namespace {

using baselines::LocalRuntime;
using baselines::SimStep;

/// One counter read out of a component's registry.
std::int64_t counter_value(const obs::Registry& metrics, const char* name) {
  const obs::Snapshot snap = metrics.snapshot();
  const obs::CounterSnapshot* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

TEST(Protocol, FrameRoundTrip) {
  Frame f;
  f.type = MsgType::kCompleteRequest;
  f.payload = {1, 2, 3, 4, 5};
  const Frame back = decode_frame(encode_frame(f));
  EXPECT_EQ(back.type, f.type);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(Protocol, EmptyPayloadFrames) {
  const Frame back = decode_frame(encode_frame(Frame{MsgType::kPing, {}}));
  EXPECT_EQ(back.type, MsgType::kPing);
  EXPECT_TRUE(back.payload.empty());
}

TEST(Protocol, BadMagicAndTypeRejected) {
  auto bytes = encode_frame(Frame{MsgType::kPong, {9}});
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decode_frame(bytes), ParseError);

  auto bytes2 = encode_frame(Frame{MsgType::kPong, {9}});
  bytes2[4] = 200;  // invalid type
  EXPECT_THROW(decode_frame(bytes2), ParseError);
}

TEST(Protocol, OneLayoutForEveryIdCombination) {
  // Zero ids (untraced, default model) are ordinary values: every frame
  // carries the same fixed header and round-trips exactly.
  for (const std::uint64_t trace_id : {0ull, 0xdeadbeefcafe0001ull}) {
    for (const std::uint32_t model_id : {0u, 12u}) {
      const Frame f{MsgType::kCompleteRequest, {7, 8, 9}, trace_id, model_id};
      const auto bytes = encode_frame(f);
      EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());
      const Frame back = decode_frame(bytes);
      EXPECT_EQ(back.type, f.type);
      EXPECT_EQ(back.payload, f.payload);
      EXPECT_EQ(back.trace_id, trace_id);
      EXPECT_EQ(back.model_id, model_id);
      EXPECT_EQ(encode_frame(back), bytes);
    }
  }
  EXPECT_EQ(kFrameHeaderBytes, 21u);
}

TEST(Protocol, GoldenBytes) {
  // Frozen wire bytes: any change to the header layout shows up here.
  const std::vector<std::uint8_t> golden = {
      0x33, 0x56, 0x43, 0x4c,                          // "LCV3" LE
      0x01,                                            // kPong
      0x0c, 0x00, 0x00, 0x00,                          // model id LE
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // trace id LE
      0x01, 0x00, 0x00, 0x00,                          // payload size 1
      0x09,                                            // payload
  };
  EXPECT_EQ(encode_frame(Frame{MsgType::kPong, {9}, 0x0102030405060708ull, 12}),
            golden);
  const Frame f = decode_frame(golden);
  EXPECT_EQ(f.type, MsgType::kPong);
  EXPECT_EQ(f.model_id, 12u);
  EXPECT_EQ(f.trace_id, 0x0102030405060708ull);
  EXPECT_EQ(f.payload, std::vector<std::uint8_t>{9});
}

constexpr std::uint32_t kOldMagicV1 = 0x4c435246;  // "LCRF"
constexpr std::uint32_t kOldMagicV2 = 0x4c435632;  // "LCV2"

/// A ping in a retired layout: `magic`, the type byte, a zero trace id
/// for "LCV2" (none for "LCRF"), a payload size and a zero payload sized
/// so the whole frame fills exactly one current header.
std::vector<std::uint8_t> old_layout_ping(std::uint32_t magic) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(magic >> (8 * i)));
  }
  bytes.push_back(0);  // kPing
  if (magic == kOldMagicV2) bytes.insert(bytes.end(), 8, 0);
  const std::size_t payload =
      kFrameHeaderBytes - bytes.size() - sizeof(std::uint32_t);
  bytes.push_back(static_cast<std::uint8_t>(payload));
  bytes.insert(bytes.end(), 3 + payload, 0);
  return bytes;
}

TEST(Protocol, OldLayoutsRejected) {
  for (const std::uint32_t magic : {kOldMagicV1, kOldMagicV2}) {
    const auto bytes = old_layout_ping(magic);
    EXPECT_THROW(decode_frame(bytes), ParseError) << std::hex << magic;
    MsgType type{};
    std::uint32_t model_id = 0;
    std::uint64_t trace_id = 0;
    EXPECT_THROW(parse_frame_header(bytes.data(), &type, &model_id, &trace_id),
                 ParseError);
  }
}

TEST(Protocol, TruncatedFrameRejected) {
  const auto bytes = encode_frame(Frame{MsgType::kPing, {1}, 0, 6});
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(
        decode_frame({bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(n)}),
        ParseError)
        << "prefix " << n;
  }
}

TEST(Protocol, PayloadBoundSharedByEncodeAndDecode) {
  auto header_announcing = [](std::uint32_t size) {
    auto bytes = encode_frame(Frame{MsgType::kCompleteRequest, {}});
    for (int i = 0; i < 4; ++i) {
      bytes[kFrameHeaderBytes - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(size >> (8 * i));
    }
    return bytes;
  };
  MsgType type{};
  std::uint32_t model_id = 0;
  std::uint64_t trace_id = 0;
  const auto at_limit = header_announcing(kMaxFramePayloadBytes);
  EXPECT_EQ(parse_frame_header(at_limit.data(), &type, &model_id, &trace_id),
            kMaxFramePayloadBytes);
  const auto over = header_announcing(kMaxFramePayloadBytes + 1);
  EXPECT_THROW(parse_frame_header(over.data(), &type, &model_id, &trace_id),
               ParseError);
  EXPECT_THROW(decode_frame(over), ParseError);

  const Frame too_big{MsgType::kCompleteRequest,
                      std::vector<std::uint8_t>(kMaxFramePayloadBytes + 1)};
  EXPECT_THROW(encode_frame(too_big), InvalidArgument);
}

TEST(Protocol, ModelUnavailableRoundTrip) {
  const auto payload = make_model_unavailable(41);
  EXPECT_EQ(parse_model_unavailable(payload), 41u);
  EXPECT_THROW(parse_model_unavailable({1, 2}), ParseError);
  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(parse_model_unavailable(trailing), ParseError);
}

TEST(Tcp, TraceIdSurvivesTheSocket) {
  Listener listener(0);
  std::thread server([&] {
    Socket conn = listener.accept_one();
    auto frame = conn.recv_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->trace_id, 0x1234567890abcdefull);
    // Echo the id back the way EdgeServer does.
    conn.send_frame(Frame{MsgType::kPong, frame->payload, frame->trace_id});
  });
  Socket client = connect_local(listener.port());
  client.send_frame(Frame{MsgType::kPing, {3}, 0x1234567890abcdefull});
  auto reply = client.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->trace_id, 0x1234567890abcdefull);
  server.join();
}

TEST(Protocol, CompletePayloadsRoundTrip) {
  Rng rng(1);
  const Tensor shared = Tensor::randn(Shape{1, 6, 14, 14}, rng);
  const Tensor back = parse_complete_request(make_complete_request(shared));
  EXPECT_EQ(max_abs_diff(shared, back), 0.0f);

  CompleteResponse resp;
  resp.label = 7;
  resp.probabilities = Tensor::rand(Shape{1, 10}, rng);
  const CompleteResponse rback =
      parse_complete_response(make_complete_response(resp));
  EXPECT_EQ(rback.label, 7);
  EXPECT_EQ(max_abs_diff(rback.probabilities, resp.probabilities), 0.0f);
}

TEST(Tcp, LoopbackFrameExchange) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread server([&] {
    Socket conn = listener.accept_one();
    ASSERT_TRUE(conn.valid());
    auto frame = conn.recv_frame();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kPing);
    conn.send_frame(Frame{MsgType::kPong, frame->payload});
  });

  Socket client = connect_local(listener.port());
  client.send_frame(Frame{MsgType::kPing, {42, 43}});
  auto reply = client.recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kPong);
  EXPECT_EQ(reply->payload, (std::vector<std::uint8_t>{42, 43}));
  server.join();
}

TEST(Tcp, CleanEofReturnsNullopt) {
  Listener listener(0);
  std::thread server([&] {
    Socket conn = listener.accept_one();
    // Close immediately without sending anything.
  });
  Socket client = connect_local(listener.port());
  server.join();
  EXPECT_FALSE(client.recv_frame().has_value());
}

TEST(Tcp, PartialHeaderThenCloseThrowsIoError) {
  const auto bytes = encode_frame(Frame{MsgType::kPing, {}, 5, 6});
  for (std::size_t n = 1; n < kFrameHeaderBytes; ++n) {
    Listener listener(0);
    std::thread server([&] {
      Socket conn = listener.accept_one();
      conn.send_all(bytes.data(), n);
    });
    Socket client = connect_local(listener.port());
    server.join();
    EXPECT_THROW(client.recv_frame(), IoError) << n << " header bytes";
  }
}

TEST(Tcp, OldLayoutFramesRejectedWithParseError) {
  for (const std::uint32_t magic : {kOldMagicV1, kOldMagicV2}) {
    const auto bytes = old_layout_ping(magic);
    Listener listener(0);
    std::thread server([&] {
      Socket conn = listener.accept_one();
      conn.send_all(bytes.data(), bytes.size());
    });
    Socket client = connect_local(listener.port());
    server.join();
    EXPECT_THROW(client.recv_frame(), ParseError) << std::hex << magic;
  }
}

TEST(Tcp, ConnectToDeadPortThrows) {
  // Grab an ephemeral port, then close the listener to free it.
  std::uint16_t dead_port;
  {
    Listener l(0);
    dead_port = l.port();
    l.shutdown_now();
  }
  EXPECT_THROW(connect_local(dead_port), IoError);
}

core::CompositeNetwork make_net(Rng& rng) {
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  return core::CompositeNetwork::build(cfg, rng);
}

TEST(EdgeServer, ServesCompletionsAndCounts) {
  Rng rng(2);
  core::CompositeNetwork net = make_net(rng);
  EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });

  Socket conn = connect_local(server.port());
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const Tensor shared = net.shared_stage().forward(x, false);
  conn.send_frame(
      Frame{MsgType::kCompleteRequest, make_complete_request(shared)});
  auto reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  const CompleteResponse resp = parse_complete_response(reply->payload);

  // The served answer matches a local main-branch forward exactly.
  const Tensor local_logits = net.forward_main_from_shared(shared);
  EXPECT_EQ(resp.label, argmax(softmax_rows(local_logits)));
  conn.close_now();
  // Poll until the server has recorded the request.
  for (int i = 0; i < 100 && server.requests_served() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), 1);
}

TEST(EndToEnd, SocketRuntimeMatchesInProcessAlgorithm2) {
  Rng rng(3);
  core::CompositeNetwork net = make_net(rng);
  // Warm batchnorm-free LeNet needs no stat warmup; export directly.
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};

  EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });

  const core::ExitPolicy policy{0.6};
  BrowserClient client(std::move(engine), policy, server.port());

  const Tensor batch = Tensor::randn(Shape{12, 1, 28, 28}, rng);
  int agreements = 0;
  for (std::int64_t i = 0; i < 12; ++i) {
    const Tensor sample = batch.slice_outer(i, i + 1);
    const ClientResult via_socket = client.classify(sample);
    const core::InferenceResult via_core =
        core::collaborative_infer(net, policy, sample);
    EXPECT_EQ(via_socket.exit_point, via_core.exit_point) << "sample " << i;
    if (via_socket.label == via_core.predicted) ++agreements;
  }
  // Engine vs framework float noise can flip a rare argmax tie, but the
  // overwhelming majority must agree.
  EXPECT_GE(agreements, 11);
  EXPECT_GE(client.exit_fraction(), 0.0);
  EXPECT_LE(client.exit_fraction(), 1.0);
}

TEST(EndToEnd, ForcedMissAlwaysAsksServer) {
  Rng rng(4);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port());
  for (int i = 0; i < 3; ++i) {
    const ClientResult r =
        client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
    EXPECT_EQ(r.exit_point, core::ExitPoint::kMainBranch);
  }
  EXPECT_DOUBLE_EQ(client.exit_fraction(), 0.0);
  for (int i = 0; i < 100 && server.requests_served() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(EndToEnd, ClientModelIdRoutesAndUnavailableFallsBack) {
  Rng rng(61);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};

  // The only registered model is id 5 -- there is no default, so an
  // untagged client would be rejected too.
  auto registry = std::make_shared<ModelRegistry>();
  registry->install(ServableModel::from_fn(
      5, 1, "m5", per_sample_batch([&net](const Tensor& shared) {
        const Tensor logits = net.forward_main_from_shared(shared);
        CompleteResponse r;
        r.probabilities = softmax_rows(logits);
        r.label = argmax(r.probabilities);
        return r;
      })));
  EdgeServer server(0, registry, ServerOptions{});

  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.deadline_ms = 2000.0;
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port(), retry);
  client.set_model_id(5);
  EXPECT_EQ(client.model_id(), 5u);
  const ClientResult ok =
      client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  EXPECT_EQ(ok.exit_point, core::ExitPoint::kMainBranch);
  EXPECT_EQ(counter_value(client.metrics(),
                          obs::names::kClientModelUnavailable),
            0);

  // Retagging to an unregistered id: every attempt draws
  // kModelUnavailable and the client degrades to the binary branch --
  // never misrouted to model 5, never a dropped connection.
  client.set_model_id(99);
  const ClientResult fb =
      client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  EXPECT_EQ(fb.exit_point, core::ExitPoint::kBinaryBranchFallback);
  EXPECT_EQ(counter_value(client.metrics(),
                          obs::names::kClientModelUnavailable),
            retry.max_attempts);

  server.stop();
  EXPECT_EQ(server.requests_served(), 1);
  EXPECT_EQ(server.rejected_unknown_model(), retry.max_attempts);
}

TEST(EndToEnd, StitchedTraceSpansClientAndServer) {
  // The observability acceptance test: one request's trace id must show
  // up in BOTH client-side and server-side spans, every pipeline stage
  // must record non-zero duration, and the exit counters must account
  // for every request.
  Rng rng(50);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};

  obs::RingBufferSink sink;
  obs::ScopedTraceSink scoped(&sink);
  obs::Registry::global().reset_values();

  EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });
  // tau = 0 forces every request through the full collaborative path so
  // the server-side spans are guaranteed to exist.
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port());

  constexpr int kRequests = 3;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    const ClientResult r =
        client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
    EXPECT_NE(r.trace_id, 0u);
    ids.insert(r.trace_id);
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
  server.stop();  // settle the server-side spans and counters

  const std::vector<obs::SpanRecord> spans = sink.spans();
  for (const std::uint64_t id : ids) {
    std::set<std::string> stages;
    for (const auto& s : spans) {
      if (s.trace_id != id) continue;
      EXPECT_GT(s.end_ns, s.start_ns) << s.name;  // non-zero duration
      stages.insert(s.name);
    }
    // Client-side stages...
    EXPECT_TRUE(stages.count(obs::names::kSpanClientConv1)) << id;
    EXPECT_TRUE(stages.count(obs::names::kSpanClientBinaryBranch)) << id;
    EXPECT_TRUE(stages.count(obs::names::kSpanClientSerialize)) << id;
    EXPECT_TRUE(stages.count(obs::names::kSpanClientNetwork)) << id;
    // ...and server-side stages stitched under the SAME id.
    EXPECT_TRUE(stages.count(obs::names::kSpanEdgeDeserialize)) << id;
    EXPECT_TRUE(stages.count(obs::names::kSpanEdgeComplete)) << id;
    EXPECT_TRUE(stages.count(obs::names::kSpanEdgeSerialize)) << id;
  }

  // Exit counters account for every request, and the client/server
  // registries agree on the traffic that flowed between them.
  const obs::Snapshot snap = client.metrics().snapshot();
  const auto* binary = snap.find_counter(obs::names::kClientExitBinary);
  const auto* main_exit = snap.find_counter(obs::names::kClientExitMain);
  const auto* fallback = snap.find_counter(obs::names::kClientExitFallback);
  const std::int64_t exits = (binary != nullptr ? binary->value : 0) +
                             (main_exit != nullptr ? main_exit->value : 0) +
                             (fallback != nullptr ? fallback->value : 0);
  EXPECT_EQ(exits, kRequests);
  ASSERT_NE(snap.find_counter(obs::names::kClientRequests), nullptr);
  EXPECT_EQ(snap.find_counter(obs::names::kClientRequests)->value, kRequests);

  const obs::Snapshot server_snap = server.metrics().snapshot();
  ASSERT_NE(server_snap.find_counter(obs::names::kServerRequests), nullptr);
  EXPECT_EQ(server_snap.find_counter(obs::names::kServerRequests)->value,
            kRequests);

  // The global registry holds the shared exit recorder.
  const obs::Snapshot global = obs::Registry::global().snapshot();
  const auto* gexit = global.find_counter(obs::names::kExitMain);
  ASSERT_NE(gexit, nullptr);
  EXPECT_EQ(gexit->value, kRequests);
  const auto* gentropy = global.find_histogram(obs::names::kExitEntropy);
  ASSERT_NE(gentropy, nullptr);
  EXPECT_EQ(gentropy->count, kRequests);
}

TEST(EndToEnd, FallbackPathRecordsExitCounter) {
  // A dead edge forces kBinaryBranchFallback; the per-ExitPoint counters
  // and entropy histogram must record the degraded path too.
  Rng rng(51);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  std::uint16_t dead_port;
  {
    Listener l(0);
    dead_port = l.port();
    l.shutdown_now();
  }
  RetryPolicy retry;
  retry.max_attempts = 1;
  retry.deadline_ms = 500.0;
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0}, dead_port,
                       retry);
  const ClientResult r =
      client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  EXPECT_EQ(r.exit_point, core::ExitPoint::kBinaryBranchFallback);
  const obs::Snapshot snap = client.metrics().snapshot();
  ASSERT_NE(snap.find_counter(obs::names::kClientExitFallback), nullptr);
  EXPECT_EQ(snap.find_counter(obs::names::kClientExitFallback)->value, 1);
}

TEST(EdgeServer, ServesConcurrentClients) {
  Rng rng(21);
  core::CompositeNetwork net = make_net(rng);
  // Eval-mode forwards are thread-safe (all layer caching is train-gated),
  // so completions run genuinely in parallel.
  EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Rng crng(100 + c);
        Socket conn = connect_local(server.port());
        core::CompositeNetwork& shared_net = net;
        for (int i = 0; i < kRequestsEach; ++i) {
          const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, crng);
          const Tensor shared = shared_net.shared_stage().forward(x, false);
          conn.send_frame(Frame{MsgType::kCompleteRequest,
                                make_complete_request(shared)});
          auto reply = conn.recv_frame();
          if (!reply.has_value() ||
              reply->type != MsgType::kCompleteResponse) {
            ++failures;
            return;
          }
          const CompleteResponse resp =
              parse_complete_response(reply->payload);
          const Tensor local = shared_net.forward_main_from_shared(shared);
          if (resp.label != argmax(softmax_rows(local))) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 0;
       i < 200 && server.requests_served() < kClients * kRequestsEach; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), kClients * kRequestsEach);
  EXPECT_EQ(server.connections_accepted(), kClients);
}

TEST(LocalRuntime, TimelineReflectsExitDecision) {
  Rng rng(5);
  core::CompositeNetwork net = make_net(rng);
  LocalRuntime always_exit(net, core::ExitPolicy{1.1},
                           sim::CostModel::paper_default(),
                           Shape{1, 28, 28});
  LocalRuntime never_exit(net, core::ExitPolicy{0.0},
                          sim::CostModel::paper_default(), Shape{1, 28, 28});

  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const SimStep fast = always_exit.classify(x, rng);
  EXPECT_EQ(fast.exit_point, core::ExitPoint::kBinaryBranch);
  EXPECT_EQ(fast.upload_ms, 0.0);
  EXPECT_EQ(fast.edge_ms, 0.0);
  EXPECT_GT(fast.browser_ms, 0.0);

  const SimStep slow = never_exit.classify(x, rng);
  EXPECT_EQ(slow.exit_point, core::ExitPoint::kMainBranch);
  EXPECT_GT(slow.upload_ms, 0.0);
  EXPECT_GT(slow.total_ms(), fast.total_ms());
}

TEST(LocalRuntime, JitteredUploadsStayWithinLinkBounds) {
  Rng rng(31);
  core::CompositeNetwork net = make_net(rng);
  sim::LinkSpec link = sim::lte_4g();
  link.jitter_frac = 0.2;
  LocalRuntime runtime(net, core::ExitPolicy{0.0},  // force collaboration
                       sim::CostModel{sim::mobile_web_browser(),
                                      sim::edge_server(), link},
                       Shape{1, 28, 28});
  const sim::NetworkModel clean{sim::lte_4g()};
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  // Every upload must fall within +-20% of the deterministic time.
  const SimStep probe = runtime.classify(x, rng);
  ASSERT_GT(probe.upload_ms, 0.0);
  double lo = probe.upload_ms, hi = probe.upload_ms;
  for (int i = 0; i < 30; ++i) {
    const double up = runtime.classify(x, rng).upload_ms;
    lo = std::min(lo, up);
    hi = std::max(hi, up);
  }
  EXPECT_GT(hi, lo);  // jitter actually varies
  const double base = (lo + hi) / 2.0;
  EXPECT_GE(lo, base * 0.75);
  EXPECT_LE(hi, base * 1.25);
}

// ---------------------------------------------------------------------
// Failure paths: deadlines, fault injection, retry/fallback, shutdown.

/// Runs `fn` on a worker thread; returns false if it is still running
/// after `timeout_ms` (the worker is detached so the suite can report the
/// failure instead of hanging).
template <typename Fn>
bool finishes_within(Fn&& fn, int timeout_ms) {
  std::packaged_task<void()> task(std::forward<Fn>(fn));
  std::future<void> fut = task.get_future();
  std::thread t(std::move(task));
  const bool done = fut.wait_for(std::chrono::milliseconds(timeout_ms)) ==
                    std::future_status::ready;
  if (done) {
    t.join();
  } else {
    t.detach();
  }
  return done;
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

RetryPolicy fast_retry(double deadline_ms) {
  RetryPolicy p;
  p.max_attempts = 3;
  p.initial_backoff_ms = 2.0;
  p.max_backoff_ms = 10.0;
  p.deadline_ms = deadline_ms;
  return p;
}

TEST(Deadline, ExpiryAndRemaining) {
  EXPECT_TRUE(Deadline().is_infinite());
  EXPECT_FALSE(Deadline::infinite().expired());
  EXPECT_TRUE(Deadline::after_ms(-1.0).expired());
  const Deadline d = Deadline::after_ms(10000.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 5000.0);
  EXPECT_LE(d.remaining_ms(), 10000.0);
  EXPECT_DOUBLE_EQ(Deadline::after_ms(-1.0).remaining_ms(), 0.0);
}

TEST(Tcp, RecvFrameDeadlineThrowsTimeout) {
  // Hold the peer open but silent so recv blocks until the deadline.
  Listener quiet(0);
  std::thread holder([&] {
    Socket conn = quiet.accept_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  Socket client = connect_local(quiet.port());
  Stopwatch watch;
  EXPECT_THROW((void)client.recv_frame(Deadline::after_ms(50.0)),
               TimeoutError);
  EXPECT_LT(watch.millis(), 250.0);  // expired near the deadline, not 300ms
  holder.join();
}

TEST(Tcp, TimeoutErrorIsAnIoError) {
  // Retry/fallback handlers catch IoError; deadlines must be included.
  EXPECT_THROW(
      { throw TimeoutError("t"); }, IoError);
}

TEST(FaultInjector, DeterministicActionsAndCounters) {
  sim::FaultSpec always_drop;
  always_drop.drop_prob = 1.0;
  FaultInjector fi(always_drop, 7);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fi.next_send_action(), FaultInjector::Action::kDrop);
  }
  EXPECT_EQ(fi.frames_dropped(), 5);
  EXPECT_EQ(fi.connections_closed(), 0);

  sim::FaultSpec always_close;
  always_close.close_prob = 1.0;
  FaultInjector fc(always_close, 7);
  EXPECT_EQ(fc.next_send_action(), FaultInjector::Action::kCloseMidFrame);
  EXPECT_EQ(fc.connections_closed(), 1);

  sim::FaultSpec bad;
  bad.drop_prob = 1.5;
  EXPECT_THROW(FaultInjector(bad, 0), Error);
}

TEST(RetryPolicyTest, ValidatesAndNoRetryPreset) {
  RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = RetryPolicy();
  bad.backoff_multiplier = 0.5;
  EXPECT_THROW(bad.validate(), Error);
  const RetryPolicy one = RetryPolicy::no_retry();
  EXPECT_EQ(one.max_attempts, 1);
  one.validate();
}

TEST(EndToEnd, ServerKilledMidRequestFallsBackToBinary) {
  Rng rng(41);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  // Completions stall so the kill lands while a request is in flight.
  auto server = std::make_unique<EdgeServer>(0, [&](const Tensor& shared) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return completion_for(net)(shared);
  });

  // Force every sample to the edge path.
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server->port(), fast_retry(1000.0));

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    server->stop();
  });
  const Tensor sample = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  Stopwatch watch;
  const ClientResult r = client.classify(sample);  // must not throw
  killer.join();

  EXPECT_EQ(r.exit_point, core::ExitPoint::kBinaryBranchFallback);
  EXPECT_LT(watch.millis(), 1500.0);  // bounded by the edge-path deadline
  EXPECT_EQ(client.fallbacks(), 1);
  EXPECT_GE(counter_value(client.metrics(), obs::names::kClientRetries), 1);

  // Fallback correctness: the degraded answer IS the binary branch's
  // prediction (always-exit policy reproduces pure binary inference).
  const core::InferenceResult binary =
      core::collaborative_infer(net, core::ExitPolicy{1.1}, sample);
  EXPECT_EQ(r.label, binary.predicted);
  EXPECT_EQ(r.label, argmax(r.probabilities));
}

TEST(EndToEnd, SlowServerTripsClientDeadline) {
  Rng rng(42);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  EdgeServer server(0, [&](const Tensor& shared) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return completion_for(net)(shared);
  });

  RetryPolicy retry = fast_retry(60.0);
  retry.max_attempts = 2;
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port(), retry);
  Stopwatch watch;
  const ClientResult r =
      client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  const double elapsed = watch.millis();
  EXPECT_EQ(r.exit_point, core::ExitPoint::kBinaryBranchFallback);
  // The deadline, not the server's 400 ms stall, bounds the call.
  EXPECT_LT(elapsed, 300.0);
  EXPECT_EQ(client.fallbacks(), 1);
}

TEST(EndToEnd, ReconnectAfterMidRequestErrorThenSucceed) {
  Rng rng(43);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};

  // A hand-rolled flaky server: connection 1 reads the request and closes
  // without replying; connection 2 serves correctly. The client must
  // abandon the desynced cached socket and reconnect.
  Listener listener(0);
  std::thread flaky([&] {
    {
      Socket c = listener.accept_one();
      (void)c.recv_frame();  // swallow the request, reply with nothing
    }
    Socket c = listener.accept_one();
    auto f = c.recv_frame();
    ASSERT_TRUE(f.has_value());
    CompleteResponse resp;
    resp.label = 4;
    resp.probabilities = Tensor::ones(Shape{1, 10});
    c.send_frame(
        Frame{MsgType::kCompleteResponse, make_complete_response(resp)});
  });

  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       listener.port(), fast_retry(2000.0));
  const ClientResult r =
      client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  flaky.join();
  EXPECT_EQ(r.exit_point, core::ExitPoint::kMainBranch);
  EXPECT_EQ(r.label, 4);
  EXPECT_GE(counter_value(client.metrics(), obs::names::kClientRetries), 1);
  EXPECT_GE(counter_value(client.metrics(), obs::names::kClientReconnects),
            1);
  EXPECT_EQ(client.fallbacks(), 0);
}

TEST(EndToEnd, InjectedDropsFallBackUnderDeadline) {
  Rng rng(44);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  EdgeServer server(0, completion_for(net));

  sim::FaultSpec black_hole;
  black_hole.drop_prob = 1.0;  // every request frame vanishes in transit
  FaultInjector fi(black_hole, 9);
  RetryPolicy retry = fast_retry(80.0);
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port(), retry);
  {
    FaultInjector::Scope scope(fi);
    const ClientResult r =
        client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
    EXPECT_EQ(r.exit_point, core::ExitPoint::kBinaryBranchFallback);
  }
  EXPECT_GE(fi.frames_dropped(), 1);
  EXPECT_EQ(server.requests_served(), 0);
}

TEST(EndToEnd, InjectedMidFrameCloseIsCountedAsServerError) {
  Rng rng(45);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  EdgeServer server(0, completion_for(net));

  sim::FaultSpec tear_down;
  tear_down.close_prob = 1.0;  // every send dies mid-frame
  FaultInjector fi(tear_down, 10);
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port(), fast_retry(500.0));
  {
    FaultInjector::Scope scope(fi);
    const ClientResult r =
        client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
    EXPECT_EQ(r.exit_point, core::ExitPoint::kBinaryBranchFallback);
  }
  EXPECT_GE(fi.connections_closed(), 1);
  // The server saw the torn connections as mid-message EOFs.
  const auto errors = [&server] {
    return counter_value(server.metrics(), obs::names::kServerConnectionErrors);
  };
  for (int i = 0; i < 200 && errors() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(errors(), 1);
}

TEST(EdgeServer, StopWithIdleConnectionReturnsPromptly) {
  // Regression: stop() used to join a connection thread blocked forever
  // in recv_frame on an idle client connection.
  auto server = std::make_unique<EdgeServer>(0, [](const Tensor&) {
    return CompleteResponse{0, Tensor::ones(Shape{1, 2})};
  });
  Socket idle_client = connect_local(server->port());
  for (int i = 0; i < 200 && server->connections_accepted() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->connections_accepted(), 1);

  EdgeServer* raw = server.get();
  const bool stopped = finishes_within([raw] { raw->stop(); }, 5000);
  EXPECT_TRUE(stopped) << "stop() hung on an idle connection";
  if (!stopped) {
    (void)server.release();  // destructor would hang too; leak and fail
  }
}

TEST(EdgeServer, ShutdownFrameClosesPeerConnectionsAndStopConverges) {
  auto server = std::make_unique<EdgeServer>(0, [](const Tensor&) {
    return CompleteResponse{0, Tensor::ones(Shape{1, 2})};
  });
  Socket bystander = connect_local(server->port());
  Socket controller = connect_local(server->port());
  for (int i = 0; i < 200 && server->connections_accepted() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->connections_accepted(), 2);

  controller.send_frame(Frame{MsgType::kShutdown, {}});
  // The *other* connection must be closed by the server, not linger until
  // its client hangs up.
  EXPECT_FALSE(bystander.recv_frame(Deadline::after_ms(3000.0)).has_value());

  EdgeServer* raw = server.get();
  const bool stopped = finishes_within([raw] { raw->stop(); }, 5000);
  EXPECT_TRUE(stopped) << "stop() did not converge after kShutdown";
  if (!stopped) (void)server.release();
}

TEST(EdgeServer, OldLayoutPingClosesOnlyItsConnection) {
  EdgeServer server(0, [](const Tensor&) {
    return CompleteResponse{0, Tensor::ones(Shape{1, 2})};
  });
  Socket old_peer = connect_local(server.port());
  const auto bytes = old_layout_ping(kOldMagicV1);
  old_peer.send_all(bytes.data(), bytes.size(), Deadline::after_ms(3000.0));
  EXPECT_FALSE(old_peer.recv_frame(Deadline::after_ms(3000.0)).has_value());
  auto errors = [&] {
    return counter_value(server.metrics(),
                         obs::names::kServerConnectionErrors);
  };
  for (int i = 0; i < 200 && errors() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(errors(), 1);

  Socket fresh = connect_local(server.port());
  fresh.send_frame(Frame{MsgType::kPing, {}});
  const auto reply = fresh.recv_frame(Deadline::after_ms(3000.0));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kPong);
}

TEST(EdgeServer, StatsSnapshotTracksCompletions) {
  Rng rng(46);
  core::CompositeNetwork net = make_net(rng);
  EdgeServer server(0, completion_for(net));
  Socket conn = connect_local(server.port());
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const Tensor shared = net.shared_stage().forward(x, false);
  conn.send_frame(
      Frame{MsgType::kCompleteRequest, make_complete_request(shared)});
  ASSERT_TRUE(conn.recv_frame().has_value());
  for (int i = 0; i < 200 && server.requests_served() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), 1);
  EXPECT_EQ(server.connections_accepted(), 1);
  const obs::Snapshot snap = server.metrics().snapshot();
  const auto* completion = snap.find_histogram(obs::names::kServerCompletionUs);
  ASSERT_NE(completion, nullptr);
  EXPECT_EQ(completion->count, 1);  // one request, one batch
  EXPECT_GE(completion->sum, 0.0);
}

TEST(EndToEnd, FallbackDisabledRethrows) {
  Rng rng(47);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  std::uint16_t dead_port;
  {
    Listener l(0);
    dead_port = l.port();
    l.shutdown_now();
  }
  RetryPolicy strict = RetryPolicy::no_retry();
  strict.fallback_to_binary = false;
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0}, dead_port,
                       strict);
  EXPECT_THROW(client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng)),
               IoError);
  EXPECT_EQ(client.fallbacks(), 0);
}

// ---------------------------------------------------------------------
// Worker pool, cross-connection batching, and kBusy admission control.

TEST(Protocol, BusyReplyRoundTrip) {
  EXPECT_EQ(parse_busy_reply(make_busy_reply(0)), 0u);
  EXPECT_EQ(parse_busy_reply(make_busy_reply(250)), 250u);
  auto bytes = make_busy_reply(5);
  bytes.push_back(0);  // trailing garbage
  EXPECT_THROW(parse_busy_reply(bytes), ParseError);
  EXPECT_THROW(parse_busy_reply({1, 2}), ParseError);  // truncated
}

TEST(ServerOptionsTest, ValidatesBounds) {
  ServerOptions bad;
  bad.num_workers = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ServerOptions();
  bad.max_batch = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ServerOptions();
  bad.max_wait_us = -1.0;
  EXPECT_THROW(bad.validate(), Error);
  ServerOptions().validate();  // defaults are valid
}

/// Blocks the FIRST completion (or batch) until release(); later calls
/// pass straight through. Lets tests hold the single worker hostage
/// while they stage requests in the central queue.
class CompletionGate {
 public:
  void enter() {
    lcrs::MutexLock lock(mutex_);
    if (entered_) return;
    entered_ = true;
    cv_.notify_all();
    while (!released_) cv_.wait(mutex_);
  }
  void await_entered() {
    lcrs::MutexLock lock(mutex_);
    while (!entered_) cv_.wait(mutex_);
  }
  void release() {
    lcrs::MutexLock lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  lcrs::Mutex mutex_{"test.edge.gate"};
  lcrs::CondVar cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(EdgeServer, FullQueueAnswersBusyAndRecovers) {
  Rng rng(60);
  core::CompositeNetwork net = make_net(rng);
  CompletionGate gate;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  opts.busy_retry_after_ms = 7;
  EdgeServer server(
      0,
      CompletionFn([&](const Tensor& shared) {
        gate.enter();
        return completion_for(net)(shared);
      }),
      opts);

  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const Tensor shared = net.shared_stage().forward(x, false);
  const auto request =
      Frame{MsgType::kCompleteRequest, make_complete_request(shared)};

  // Request A: popped by the lone worker, which then blocks in the gate.
  Socket a = connect_local(server.port());
  a.send_frame(request);
  gate.await_entered();
  // Request B: sits in the queue, filling it to capacity.
  Socket b = connect_local(server.port());
  b.send_frame(request);
  for (int i = 0; i < 2000 && server.queue_depth() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queue_depth(), 1);
  // Request C: queue full -> deterministic kBusy with the retry hint.
  Socket c = connect_local(server.port());
  c.send_frame(request);
  auto busy = c.recv_frame(Deadline::after_ms(5000.0));
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(busy->type, MsgType::kBusy);
  EXPECT_EQ(parse_busy_reply(busy->payload), 7u);
  EXPECT_EQ(server.rejected_busy(), 1);

  // The rejected connection stays healthy: after the gate opens and the
  // queue drains, the SAME socket gets a correct completion.
  gate.release();
  auto ra = a.recv_frame(Deadline::after_ms(5000.0));
  auto rb = b.recv_frame(Deadline::after_ms(5000.0));
  ASSERT_TRUE(ra.has_value() && rb.has_value());
  c.send_frame(request);
  auto rc = c.recv_frame(Deadline::after_ms(5000.0));
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->type, MsgType::kCompleteResponse);
  const CompleteResponse resp = parse_complete_response(rc->payload);
  const Tensor local = softmax_rows(net.forward_main_from_shared(shared));
  EXPECT_EQ(resp.label, argmax(local));
  EXPECT_EQ(max_abs_diff(resp.probabilities, local), 0.0f);
  for (int i = 0; i < 200 && server.requests_served() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), 3);
}

TEST(EdgeServer, BatchesFormAcrossConnectionsBitExactly) {
  Rng rng(61);
  core::CompositeNetwork net = make_net(rng);
  CompletionGate gate;
  BatchCompletionFn batched = main_branch_batch_completion(net);
  ServerOptions opts;
  opts.num_workers = 1;  // one worker => while it is gated, requests pile up
  opts.max_batch = 8;
  EdgeServer server(
      0,
      BatchCompletionFn([&](const Tensor& batch) {
        gate.enter();
        return batched(batch);
      }),
      opts);

  // Warmup request holds the worker inside the gate.
  const Tensor wx = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const Tensor wshared = net.shared_stage().forward(wx, false);
  Socket warm = connect_local(server.port());
  warm.send_frame(
      Frame{MsgType::kCompleteRequest, make_complete_request(wshared)});
  gate.await_entered();

  // Stage K requests from K distinct connections; they must all be
  // waiting in the queue when the gate opens.
  constexpr int kClients = 4;
  std::vector<Socket> conns;
  std::vector<Tensor> shareds;
  for (int i = 0; i < kClients; ++i) {
    const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
    shareds.push_back(net.shared_stage().forward(x, false));
    conns.push_back(connect_local(server.port()));
    conns.back().send_frame(Frame{MsgType::kCompleteRequest,
                                  make_complete_request(shareds.back())});
  }
  for (int i = 0; i < 5000 && server.queue_depth() < kClients; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queue_depth(), kClients);

  gate.release();
  // Each reply is bit-identical to completing that request alone, even
  // though all K rode one batched forward.
  for (int i = 0; i < kClients; ++i) {
    auto reply = conns[static_cast<std::size_t>(i)].recv_frame(
        Deadline::after_ms(10000.0));
    ASSERT_TRUE(reply.has_value()) << "client " << i;
    const CompleteResponse resp = parse_complete_response(reply->payload);
    const Tensor local = softmax_rows(
        net.forward_main_from_shared(shareds[static_cast<std::size_t>(i)]));
    EXPECT_EQ(resp.label, argmax(local)) << "client " << i;
    EXPECT_EQ(max_abs_diff(resp.probabilities, local), 0.0f)
        << "client " << i;
  }
  for (int i = 0; i < 200 && server.requests_served() < kClients + 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), kClients + 1);
  // Warmup dispatched alone; the staged K coalesced into ONE batch.
  EXPECT_EQ(server.batches_dispatched(), 2);
}

TEST(EndToEnd, ClientRetriesThroughBusyAndSucceeds) {
  Rng rng(62);
  core::CompositeNetwork net = make_net(rng);
  webinfer::Engine engine{webinfer::export_browser_model(net, 1, 28, 28)};
  CompletionGate gate;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  opts.busy_retry_after_ms = 1;
  EdgeServer server(
      0,
      CompletionFn([&](const Tensor& shared) {
        gate.enter();
        return completion_for(net)(shared);
      }),
      opts);

  // Occupy the worker and fill the queue with raw requests.
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const Tensor shared = net.shared_stage().forward(x, false);
  const auto request =
      Frame{MsgType::kCompleteRequest, make_complete_request(shared)};
  Socket a = connect_local(server.port());
  a.send_frame(request);
  gate.await_entered();
  Socket b = connect_local(server.port());
  b.send_frame(request);
  for (int i = 0; i < 2000 && server.queue_depth() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queue_depth(), 1);

  RetryPolicy retry;
  retry.max_attempts = 8;
  retry.initial_backoff_ms = 5.0;
  retry.max_backoff_ms = 20.0;
  retry.deadline_ms = 10000.0;
  BrowserClient client(std::move(engine), core::ExitPolicy{0.0},
                       server.port(), retry);
  std::thread classifier([&] {
    const ClientResult r =
        client.classify(Tensor::randn(Shape{1, 1, 28, 28}, rng));
    // After the gate opens, a retry must land a real main-branch answer.
    EXPECT_EQ(r.exit_point, core::ExitPoint::kMainBranch);
  });
  // Release the gate as soon as the client has eaten one kBusy.
  for (int i = 0; i < 5000 && server.rejected_busy() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.rejected_busy(), 1);
  gate.release();
  classifier.join();
  (void)a.recv_frame(Deadline::after_ms(5000.0));
  (void)b.recv_frame(Deadline::after_ms(5000.0));
  EXPECT_GE(
      counter_value(client.metrics(), obs::names::kClientBusyRejections), 1);
  EXPECT_EQ(client.fallbacks(), 0);
}

TEST(LocalRuntime, AmortizedLoadScalesWithSession) {
  Rng rng(6);
  core::CompositeNetwork net = make_net(rng);
  sim::Scenario short_session;
  short_session.session_samples = 10;
  sim::Scenario long_session;
  long_session.session_samples = 1000;
  LocalRuntime a(net, core::ExitPolicy{0.5}, sim::CostModel::paper_default(),
                 Shape{1, 28, 28}, short_session);
  LocalRuntime b(net, core::ExitPolicy{0.5}, sim::CostModel::paper_default(),
                 Shape{1, 28, 28}, long_session);
  EXPECT_GT(a.amortized_load_ms(), b.amortized_load_ms());
  EXPECT_EQ(a.browser_model_bytes(), b.browser_model_bytes());
}

}  // namespace
}  // namespace lcrs::edge
