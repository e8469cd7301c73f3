// Deterministic load harness for the batched edge serving path.
//
// N concurrent clients flood a real EdgeServer (worker pool + cross-
// connection batching + bounded admission queue) and the suite checks
// the three contracts load must not bend:
//
//   1. Exactly one reply per request, demultiplexed to the right socket
//      (trace ids echo; answers match each request's own input).
//   2. Bit-for-bit numerics: every probability vector served out of a
//      batch equals the single-request main-branch forward exactly.
//   3. Counter reconciliation: issued == served + lost, busy rejections
//      agree between client and server, and per-client exit accounting
//      (binary + main + fallback == classified) holds under faults.
//
// Everything is seeded (lcrs::Rng for inputs, FaultSpec seed for the
// fault schedule), so a failure replays.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "core/inference.h"
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

/// One client's scripted workload: inputs, expected bit-exact answers,
/// and the counters it observed while replaying it.
struct ClientScript {
  std::vector<Tensor> shareds;
  std::vector<Tensor> expected;  // softmax rows from the per-sample path
  std::vector<std::int64_t> expected_labels;
};

ClientScript make_script(core::CompositeNetwork& net, Rng& rng,
                         int requests) {
  ClientScript s;
  for (int i = 0; i < requests; ++i) {
    const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
    s.shareds.push_back(net.shared_stage().forward(x, false));
    const Tensor probs =
        softmax_rows(net.forward_main_from_shared(s.shareds.back()));
    s.expected_labels.push_back(argmax(probs));
    s.expected.push_back(probs);
  }
  return s;
}

TEST(EdgeLoad, ConcurrentClientsBitExactAndReconciled) {
  Rng rng(7001);
  core::CompositeNetwork net = make_net(rng);

  ServerOptions opts;
  opts.num_workers = 3;
  opts.max_batch = 8;
  opts.max_wait_us = 200.0;  // linger briefly so cross-connection batches form
  opts.queue_capacity = 64;
  EdgeServer server(0, main_branch_batch_completion(net), opts);

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 6;
  std::vector<ClientScript> scripts;
  for (int c = 0; c < kClients; ++c) {
    Rng crng(9000 + static_cast<std::uint64_t>(c));
    scripts.push_back(make_script(net, crng, kRequestsEach));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> wrong_trace{0};
  std::atomic<int> busy_seen{0};
  std::atomic<int> served_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const ClientScript& script = scripts[static_cast<std::size_t>(c)];
      Socket conn = connect_local(server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        // A unique id per request: the echo in the reply proves the
        // batcher demultiplexed to the right request, not just the
        // right socket.
        const std::uint64_t trace_id =
            0xB000000000000000ull +
            static_cast<std::uint64_t>(c * 1000 + i + 1);
        const Frame request{
            MsgType::kCompleteRequest,
            make_complete_request(script.shareds[static_cast<std::size_t>(i)]),
            trace_id};
        for (int attempt = 0; attempt < 200; ++attempt) {
          conn.send_frame(request);
          auto reply = conn.recv_frame(Deadline::after_ms(30000.0));
          if (!reply.has_value()) return;  // server gone: abort client
          if (reply->type == MsgType::kBusy) {
            ++busy_seen;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                parse_busy_reply(reply->payload)));
            continue;  // retry the same request on the same socket
          }
          if (reply->trace_id != trace_id) ++wrong_trace;
          const CompleteResponse resp =
              parse_complete_response(reply->payload);
          const std::size_t idx = static_cast<std::size_t>(i);
          if (resp.label != script.expected_labels[idx] ||
              max_abs_diff(resp.probabilities, script.expected[idx]) !=
                  0.0f) {
            ++mismatches;
          }
          ++served_ok;
          break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0) << "batched reply differed from the "
                                     "single-request main-branch forward";
  EXPECT_EQ(wrong_trace.load(), 0) << "reply demuxed to the wrong request";
  EXPECT_EQ(served_ok.load(), kClients * kRequestsEach);

  // Counter reconciliation: every issued request was either served or
  // rejected busy, and both sides agree on how many of each.
  for (int i = 0;
       i < 500 && server.requests_served() < kClients * kRequestsEach; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), kClients * kRequestsEach);
  EXPECT_EQ(server.rejected_busy(), busy_seen.load());
  EXPECT_EQ(server.queue_depth(), 0);
  EXPECT_EQ(server.connections_accepted(), kClients);
  EXPECT_GE(server.batches_dispatched(), 1);
  // Batching can only shrink the dispatch count, never lose a request.
  EXPECT_LE(server.batches_dispatched(), server.requests_served());

  // The instruments tell the same story as the accessors.
  const obs::Snapshot snap = server.metrics().snapshot();
  const auto* batches = snap.find_histogram(obs::names::kServerBatchSize);
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->count, server.batches_dispatched());
  EXPECT_EQ(static_cast<std::int64_t>(batches->sum),
            server.requests_served());
  const auto* waits = snap.find_histogram(obs::names::kServerQueueWaitUs);
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->count, server.requests_served());
}

TEST(EdgeLoad, TinyQueueForcesBusyButLosesNothing) {
  Rng rng(7002);
  core::CompositeNetwork net = make_net(rng);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 2;
  opts.queue_capacity = 1;  // nearly every burst overflows
  opts.busy_retry_after_ms = 1;
  EdgeServer server(0, main_branch_batch_completion(net), opts);

  constexpr int kClients = 6;
  constexpr int kRequestsEach = 4;
  std::vector<ClientScript> scripts;
  for (int c = 0; c < kClients; ++c) {
    Rng crng(9100 + static_cast<std::uint64_t>(c));
    scripts.push_back(make_script(net, crng, kRequestsEach));
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> busy_seen{0};
  std::atomic<int> served_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const ClientScript& script = scripts[static_cast<std::size_t>(c)];
      Socket conn = connect_local(server.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i);
        const Frame request{MsgType::kCompleteRequest,
                            make_complete_request(script.shareds[idx])};
        for (int attempt = 0; attempt < 500; ++attempt) {
          conn.send_frame(request);
          auto reply = conn.recv_frame(Deadline::after_ms(30000.0));
          if (!reply.has_value()) return;
          if (reply->type == MsgType::kBusy) {
            ++busy_seen;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                parse_busy_reply(reply->payload)));
            continue;
          }
          const CompleteResponse resp =
              parse_complete_response(reply->payload);
          if (resp.label != script.expected_labels[idx] ||
              max_abs_diff(resp.probabilities, script.expected[idx]) !=
                  0.0f) {
            ++mismatches;
          }
          ++served_ok;
          break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served_ok.load(), kClients * kRequestsEach);
  for (int i = 0;
       i < 500 && server.requests_served() < kClients * kRequestsEach; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), kClients * kRequestsEach);
  EXPECT_EQ(server.rejected_busy(), busy_seen.load());
}

TEST(EdgeLoad, SeededBrowserClientMixUnderFaultsReconciles) {
  // The realistic mix: BrowserClients (entropy exits, retries, fallback)
  // under a seeded fault schedule that drops and tears frames. Faults
  // may cost retries or degrade answers -- but the exit accounting must
  // balance exactly and nobody may hang.
  Rng rng(7003);
  core::CompositeNetwork net = make_net(rng);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  opts.max_wait_us = 100.0;
  EdgeServer server(0, main_branch_batch_completion(net), opts);

  sim::FaultSpec faults;
  faults.drop_prob = 0.05;
  faults.close_prob = 0.03;
  FaultInjector injector(faults, 4242);

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 8;
  struct Outcome {
    std::int64_t classified = 0, binary = 0, main = 0, fallback = 0;
  };
  std::vector<Outcome> outcomes(kClients);
  // Export once; each client then loads its own Engine from the same
  // model, as browsers load one downloaded blob.
  const webinfer::WebModel browser_model =
      webinfer::export_browser_model(net, 1, 28, 28);
  {
    FaultInjector::Scope scope(injector);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Rng crng(9200 + static_cast<std::uint64_t>(c));
        webinfer::Engine engine{browser_model};
        RetryPolicy retry;
        retry.max_attempts = 4;
        retry.initial_backoff_ms = 2.0;
        retry.max_backoff_ms = 10.0;
        // A dropped request frame costs a whole recv deadline before the
        // retry fires; keep the budget tight so the flood stays brisk.
        retry.deadline_ms = 800.0;
        // tau = 0.5: a genuine mix of local exits and edge completions.
        BrowserClient client(std::move(engine), core::ExitPolicy{0.5},
                             server.port(), retry);
        for (int i = 0; i < kRequestsEach; ++i) {
          (void)client.classify(Tensor::randn(Shape{1, 1, 28, 28}, crng));
        }
        const obs::Snapshot s = client.metrics().snapshot();
        Outcome& o = outcomes[static_cast<std::size_t>(c)];
        o.classified = client.classified();
        o.binary = s.find_counter(obs::names::kClientExitBinary)->value;
        o.main = s.find_counter(obs::names::kClientExitMain)->value;
        o.fallback = client.fallbacks();
      });
    }
    for (auto& t : threads) t.join();
  }

  std::int64_t main_total = 0;
  for (int c = 0; c < kClients; ++c) {
    const Outcome& o = outcomes[static_cast<std::size_t>(c)];
    // Exactly-one-answer accounting: every classify() resolved through
    // exactly one of the three exits.
    EXPECT_EQ(o.classified, kRequestsEach) << "client " << c;
    EXPECT_EQ(o.binary + o.main + o.fallback, o.classified) << "client " << c;
    main_total += o.main;
  }
  // Every edge-completed answer was served by the server; the server may
  // have served MORE (a response lost in transit is served-but-retried).
  EXPECT_GE(server.requests_served(), main_total);
  server.stop();
  EXPECT_EQ(server.queue_depth(), 0);
}

}  // namespace
}  // namespace lcrs::edge
