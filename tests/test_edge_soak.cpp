// Soak/stress tests for the batched edge serving path: repeated
// start/flood/stop cycles, fault injection mid-batch, a poisoned batch
// member (its socket reset under a queued request), and shutdown
// convergence with requests in flight. Everything is seeded; every stop
// is bounded by finishes_within so a hang fails instead of wedging CI.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/sync.h"
#include "core/inference.h"
#include "edge/client.h"
#include "edge/server.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace lcrs::edge {
namespace {

/// One counter read out of a component's registry.
std::int64_t counter_value(const obs::Registry& metrics, const char* name) {
  const obs::Snapshot snap = metrics.snapshot();
  const obs::CounterSnapshot* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

core::CompositeNetwork make_net(Rng& rng) {
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  return core::CompositeNetwork::build(cfg, rng);
}

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

/// Blocks the FIRST batch until release(); later batches pass through.
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
  lcrs::Mutex mutex_{"test.soak.gate"};
  lcrs::CondVar cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(EdgeSoak, StartFloodStopCyclesConverge) {
  Rng rng(8001);
  core::CompositeNetwork net = make_net(rng);
  // Export once; each client then loads its own Engine from the same
  // model, as browsers load one downloaded blob.
  const webinfer::WebModel browser_model =
      webinfer::export_browser_model(net, 1, 28, 28);

  constexpr int kCycles = 5;
  constexpr int kClients = 3;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Vary the serving shape every cycle so the soak walks the config
    // space instead of hammering one path.
    ServerOptions opts;
    opts.num_workers = 1 + cycle % 3;
    opts.max_batch = 1 + cycle % 4;
    opts.max_wait_us = (cycle % 2 == 0) ? 0.0 : 150.0;
    opts.queue_capacity = (cycle % 2 == 0) ? 64 : 4;
    opts.busy_retry_after_ms = 1;
    auto server = std::make_unique<EdgeServer>(
        0, main_branch_batch_completion(net), opts);

    // Odd cycles run under a seeded fault schedule: frames get dropped
    // and connections torn down mid-frame while batches are in flight.
    sim::FaultSpec faults;
    if (cycle % 2 == 1) {
      faults.drop_prob = 0.08;
      faults.close_prob = 0.05;
    }
    FaultInjector injector(faults, 500 + static_cast<std::uint64_t>(cycle));
    FaultInjector::Scope scope(injector);

    std::atomic<bool> flood{true};
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, cycle] {
        Rng crng(static_cast<std::uint64_t>(1000 * cycle + c));
        webinfer::Engine engine{browser_model};
        RetryPolicy retry;
        retry.max_attempts = 2;
        retry.initial_backoff_ms = 1.0;
        retry.max_backoff_ms = 5.0;
        retry.deadline_ms = 1000.0;  // bounded even against a dead server
        BrowserClient client(std::move(engine), core::ExitPolicy{0.25},
                             server->port(), retry);
        while (flood.load()) {
          (void)client.classify(Tensor::randn(Shape{1, 1, 28, 28}, crng));
          ++answered;
        }
      });
    }

    // Let the flood get going, then stop the server *while requests are
    // in flight*. stop() must converge regardless.
    for (int i = 0; i < 20000 && answered.load() < 2 * kClients; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(answered.load(), 2 * kClients) << "cycle " << cycle;
    EdgeServer* raw = server.get();
    const bool stopped = finishes_within([raw] { raw->stop(); }, 15000);
    EXPECT_TRUE(stopped) << "stop() hung mid-flood in cycle " << cycle;
    flood.store(false);
    for (auto& t : clients) t.join();
    if (!stopped) {
      (void)server.release();  // destructor would hang too; leak and fail
      FAIL() << "aborting soak: server wedged in cycle " << cycle;
    }
    EXPECT_EQ(server->queue_depth(), 0) << "cycle " << cycle;
  }
}

TEST(EdgeSoak, PoisonedBatchMemberFailsAlone) {
  // Three requests ride one batch; the middle request's client resets
  // its socket (SO_LINGER 0 => RST) while the request waits in the
  // queue. The poisoned member's reply send must fail on ITS connection
  // only -- the healthy members still get bit-exact answers.
  Rng rng(8002);
  core::CompositeNetwork net = make_net(rng);
  CompletionGate gate;
  BatchCompletionFn batched = main_branch_batch_completion(net);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 8;
  EdgeServer server(
      0,
      BatchCompletionFn([&](const Tensor& batch) {
        gate.enter();
        return batched(batch);
      }),
      opts);

  const auto request_for = [&](const Tensor& shared) {
    return Frame{MsgType::kCompleteRequest, make_complete_request(shared)};
  };

  // Warmup request holds the lone worker inside the gate.
  const Tensor warm_shared = net.shared_stage().forward(
      Tensor::randn(Shape{1, 1, 28, 28}, rng), false);
  Socket warm = connect_local(server.port());
  warm.send_frame(request_for(warm_shared));
  gate.await_entered();

  // Stage: healthy A, victim V, healthy B -- all queued behind the gate.
  std::vector<Tensor> shareds;
  for (int i = 0; i < 3; ++i) {
    shareds.push_back(net.shared_stage().forward(
        Tensor::randn(Shape{1, 1, 28, 28}, rng), false));
  }
  Socket healthy_a = connect_local(server.port());
  healthy_a.send_frame(request_for(shareds[0]));
  Socket victim = connect_local(server.port());
  victim.send_frame(request_for(shareds[1]));
  Socket healthy_b = connect_local(server.port());
  healthy_b.send_frame(request_for(shareds[2]));
  for (int i = 0; i < 5000 && server.queue_depth() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queue_depth(), 3);

  // Reset the victim's connection: SO_LINGER{on, 0} turns close() into a
  // deterministic RST, so the server's eventual reply send fails instead
  // of landing in a dead-letter buffer.
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ASSERT_EQ(setsockopt(victim.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)),
            0);
  victim.close_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let RST land

  gate.release();

  // Healthy members get bit-exact answers even though a batch-mate died.
  const auto expect_exact = [&](Socket& conn, const Tensor& shared) {
    auto reply = conn.recv_frame(Deadline::after_ms(10000.0));
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kCompleteResponse);
    const CompleteResponse resp = parse_complete_response(reply->payload);
    const Tensor local = softmax_rows(net.forward_main_from_shared(shared));
    EXPECT_EQ(resp.label, argmax(local));
    EXPECT_EQ(max_abs_diff(resp.probabilities, local), 0.0f);
  };
  expect_exact(healthy_a, shareds[0]);
  expect_exact(healthy_b, shareds[2]);
  expect_exact(warm, warm_shared);

  // The victim's failed reply is charged to ITS connection, nothing else.
  const auto errors = [&server] {
    return counter_value(server.metrics(), obs::names::kServerConnectionErrors);
  };
  for (int i = 0; i < 5000 && errors() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(errors(), 1);
  for (int i = 0; i < 500 && server.requests_served() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_served(), 3);  // warmup + 2 healthy, not victim
}

TEST(EdgeSoak, StopWithQueuedRequestsFailsThemCleanly) {
  // Requests parked in the queue when stop() lands must be flushed and
  // their connections unwound -- not leaked, not hung.
  Rng rng(8003);
  core::CompositeNetwork net = make_net(rng);
  CompletionGate gate;
  BatchCompletionFn batched = main_branch_batch_completion(net);
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;  // queued requests stay queued while the gate holds
  auto server = std::make_unique<EdgeServer>(
      0,
      BatchCompletionFn([&](const Tensor& batch) {
        gate.enter();
        return batched(batch);
      }),
      opts);

  const Tensor shared = net.shared_stage().forward(
      Tensor::randn(Shape{1, 1, 28, 28}, rng), false);
  Socket warm = connect_local(server->port());
  warm.send_frame(
      Frame{MsgType::kCompleteRequest, make_complete_request(shared)});
  gate.await_entered();

  std::vector<Socket> parked;
  for (int i = 0; i < 3; ++i) {
    parked.push_back(connect_local(server->port()));
    parked.back().send_frame(
        Frame{MsgType::kCompleteRequest, make_complete_request(shared)});
  }
  for (int i = 0; i < 5000 && server->queue_depth() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->queue_depth(), 3);

  // stop() blocks joining the gated worker, so release the gate from a
  // side thread after stop() has begun flushing.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release();
  });
  EdgeServer* raw = server.get();
  const bool stopped = finishes_within([raw] { raw->stop(); }, 15000);
  releaser.join();
  EXPECT_TRUE(stopped) << "stop() hung with requests parked in the queue";
  if (!stopped) {
    (void)server.release();
    FAIL() << "server wedged";
  }
  EXPECT_EQ(server->queue_depth(), 0);
  // The parked clients see their connections close, never a hang.
  for (auto& conn : parked) {
    EXPECT_FALSE(conn.recv_frame(Deadline::after_ms(5000.0)).has_value());
  }
}

TEST(EdgeSoak, HotSwapActorUnderFloodConverges) {
  // A swap actor keeps load->flip->drain-ing new versions of the model a
  // flood of BrowserClients is tagged to -- and periodically walks the
  // eviction path (evict, let rejections flow, reinstall). The flood
  // must keep completing throughout: a request caught by an eviction
  // degrades to the binary branch via kModelUnavailable, it never hangs
  // or tears the connection. Afterwards every retired snapshot must
  // drain (live gauge back to registered count) and stop() converge.
  Rng rng(8009);
  core::CompositeNetwork net = make_net(rng);
  const webinfer::WebModel browser_model =
      webinfer::export_browser_model(net, 1, 28, 28);

  auto registry = std::make_shared<ModelRegistry>();
  // One completion built (and edge-prepared) up front, before any worker
  // runs: all versions share the eval-mode network, whose forwards are
  // thread-safe only once the packing writes are done. Each install
  // still exercises the full retire/drain machinery.
  const auto completion = main_branch_batch_completion(net);
  const auto snapshot_v = [&completion](std::uint32_t id,
                                        std::uint32_t version) {
    return ServableModel::from_fn(id, version, "soak", completion);
  };
  constexpr std::uint32_t kSwappedId = 4;
  registry->install(snapshot_v(0, 1));  // untagged clients' default
  registry->install(snapshot_v(kSwappedId, 1));

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 3;
  opts.max_wait_us = 100.0;
  opts.queue_capacity = 16;
  opts.busy_retry_after_ms = 1;
  auto server = std::make_unique<EdgeServer>(0, registry, opts);

  std::atomic<bool> flood{true};
  std::atomic<int> answered{0};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(static_cast<std::uint64_t>(9100 + c));
      webinfer::Engine engine{browser_model};
      RetryPolicy retry;
      retry.max_attempts = 2;
      retry.initial_backoff_ms = 1.0;
      retry.max_backoff_ms = 5.0;
      retry.deadline_ms = 1000.0;
      BrowserClient client(std::move(engine), core::ExitPolicy{0.25},
                           server->port(), retry);
      if (c % 2 == 1) client.set_model_id(kSwappedId);
      while (flood.load()) {
        (void)client.classify(Tensor::randn(Shape{1, 1, 28, 28}, crng));
        ++answered;
      }
    });
  }

  std::atomic<bool> swapping{true};
  std::thread swap_actor([&] {
    std::uint32_t version = 1;
    int iter = 0;
    while (swapping.load()) {
      if (++iter % 4 == 0) {
        // Eviction path: rejections flow until the reinstall below.
        registry->evict(kSwappedId);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      registry->install(snapshot_v(kSwappedId, ++version));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int i = 0; i < 20000 && answered.load() < 10 * kClients; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(answered.load(), 10 * kClients);
  swapping.store(false);
  swap_actor.join();  // actor exits with the model installed
  flood.store(false);
  for (auto& t : clients) t.join();

  // Drain: with the flood gone no batch pins a retired snapshot, so the
  // live gauge must fall back to the registered count (bounded poll).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry->live_models() != registry->size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(registry->live_models(), registry->size())
      << "retired snapshots still pinned after the flood drained";

  EdgeServer* raw = server.get();
  const bool stopped = finishes_within([raw] { raw->stop(); }, 15000);
  EXPECT_TRUE(stopped) << "stop() hung after hot-swap soak";
  if (!stopped) {
    (void)server.release();
    FAIL() << "server wedged";
  }
  EXPECT_EQ(server->queue_depth(), 0);
}

}  // namespace
}  // namespace lcrs::edge
