// Hot-swap-under-load harness (load tier): the headline proof for the
// multi-model serving registry (edge/model_registry.h).
//
// 16 raw-socket clients split across 2 models hammer one EdgeServer
// while a swapper thread keeps installing new versions of both models.
// Completions are synthetic and *tagged*: every response encodes
// (model id, version, row checksum) in its label and probabilities, so
// the clients can verify, per response,
//
//   * no dropped connections: every request gets a reply (kBusy is
//     retried; an EOF or timeout fails the test);
//   * no cross-model misroutes: the frame header echoes the request's
//     model id and the label's embedded model id matches it;
//   * bit-exactness against the serving version: the response is
//     recomputed from the request tensor and the version the server
//     claims served it, and must match exactly -- a batch mixing two
//     snapshots or a swap retargeting an in-flight request cannot pass;
//   * monotonic version visibility: the version serving a client's
//     requests never decreases.
//
// After the flood, the registry's live_models() gauge must fall back to
// size(): every displaced snapshot's memory is released once its last
// in-flight batch drains.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "edge/model_registry.h"
#include "edge/server.h"
#include "edge/tcp.h"

namespace lcrs {
namespace {

constexpr int kClients = 16;
constexpr int kRequestsPerClient = 40;
constexpr double kIoDeadlineMs = 10000.0;
constexpr std::uint32_t kModelIds[] = {1, 2};

/// Row checksum both sides compute from bit-identical floats.
std::int64_t row_hash(const float* p, std::int64_t n) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) sum += static_cast<double>(p[i]);
  const std::int64_t h = std::llround(sum * 16.0) % 10000;
  return h < 0 ? h + 10000 : h;
}

std::int64_t tagged_label(std::uint32_t model_id, std::uint32_t version,
                          std::int64_t hash) {
  return static_cast<std::int64_t>(model_id) * 1000000 +
         static_cast<std::int64_t>(version) * 10000 + hash;
}

/// The exact response bytes version `version` of model `model_id`
/// produces for one request row -- used by the server's completion and
/// re-derived by the client for the bit-exactness check.
edge::CompleteResponse tagged_response(std::uint32_t model_id,
                                       std::uint32_t version,
                                       const float* row, std::int64_t n) {
  edge::CompleteResponse r;
  r.label = tagged_label(model_id, version, row_hash(row, n));
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) sum += static_cast<double>(row[i]);
  r.probabilities = Tensor(
      Shape{3}, std::vector<float>{static_cast<float>(model_id),
                                   static_cast<float>(version),
                                   static_cast<float>(sum)});
  return r;
}

std::shared_ptr<const edge::ServableModel> tagged_model(
    std::uint32_t model_id, std::uint32_t version) {
  return edge::ServableModel::from_fn(
      model_id, version, "tagged-" + std::to_string(model_id),
      [model_id, version](const Tensor& batch) {
        const std::int64_t k = batch.dim(0);
        const std::int64_t per = batch.numel() / k;
        std::vector<edge::CompleteResponse> out;
        out.reserve(static_cast<std::size_t>(k));
        for (std::int64_t i = 0; i < k; ++i) {
          out.push_back(tagged_response(model_id, version,
                                        batch.data() + i * per, per));
        }
        return out;
      });
}

struct ClientReport {
  std::int64_t completions = 0;
  std::int64_t busy_retries = 0;
  std::string failure;  // empty = clean run
};

void run_client(std::uint16_t port, int client_idx, ClientReport* report) {
  const std::uint32_t model_id = kModelIds[client_idx % 2];
  try {
    edge::Socket sock = edge::connect_local(port);
    Rng rng(9000 + static_cast<std::uint64_t>(client_idx));
    std::uint32_t last_version = 0;
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const Tensor t = Tensor::randn(Shape{1, 2, 4, 4}, rng);
      for (;;) {  // retry loop for kBusy
        sock.send_frame(
            edge::Frame{edge::MsgType::kCompleteRequest,
                        edge::make_complete_request(t),
                        /*trace_id=*/0, model_id},
            edge::Deadline::after_ms(kIoDeadlineMs));
        const std::optional<edge::Frame> reply =
            sock.recv_frame(edge::Deadline::after_ms(kIoDeadlineMs));
        if (!reply.has_value()) {
          report->failure = "connection dropped mid-run";
          return;
        }
        if (reply->model_id != model_id) {
          report->failure = "reply header echoes wrong model id";
          return;
        }
        if (reply->type == edge::MsgType::kBusy) {
          ++report->busy_retries;
          std::this_thread::sleep_for(std::chrono::milliseconds(
              edge::parse_busy_reply(reply->payload)));
          continue;
        }
        if (reply->type != edge::MsgType::kCompleteResponse) {
          report->failure = "unexpected reply type";
          return;
        }
        const edge::CompleteResponse resp =
            edge::parse_complete_response(reply->payload);
        // Which version claims to have served this? Decode, then demand
        // the whole response is bit-exact for that version.
        const auto version =
            static_cast<std::uint32_t>((resp.label / 10000) % 100);
        const edge::CompleteResponse expect =
            tagged_response(model_id, version, t.data(), t.numel());
        if (resp.label != expect.label) {
          report->failure = "label mismatch: misroute or mixed batch";
          return;
        }
        if (resp.probabilities.shape() != expect.probabilities.shape() ||
            std::memcmp(resp.probabilities.data(),
                        expect.probabilities.data(),
                        sizeof(float) * 3) != 0) {
          report->failure =
              "response not bit-exact against the serving version";
          return;
        }
        if (version < last_version) {
          report->failure = "version went backwards (stale snapshot "
                            "served after a newer one)";
          return;
        }
        last_version = version;
        ++report->completions;
        break;
      }
    }
  } catch (const Error& e) {
    report->failure = e.what();
  }
}

TEST(ModelSwap, SwapUnderLoadNoDropsNoMisroutes) {
  auto registry = std::make_shared<edge::ModelRegistry>();
  // Version space: tagged_label gives versions two decimal digits, and
  // the swapper stays well below that.
  std::uint32_t versions[] = {1, 1};
  registry->install(tagged_model(kModelIds[0], versions[0]));
  registry->install(tagged_model(kModelIds[1], versions[1]));

  edge::ServerOptions opts;
  opts.num_workers = 4;
  opts.max_batch = 4;
  opts.max_wait_us = 50.0;
  opts.queue_capacity = 64;
  opts.busy_retry_after_ms = 1;
  edge::EdgeServer server(0, registry, opts);

  std::atomic<bool> stop_swapper{false};
  std::atomic<std::int64_t> swaps{0};
  std::thread swapper([&] {
    int which = 0;
    while (!stop_swapper.load(std::memory_order_acquire)) {
      // Alternate models; each install retires the incumbent snapshot
      // while its in-flight batches drain against it.
      if (versions[which] < 80) {
        ++versions[which];
        registry->install(tagged_model(kModelIds[which], versions[which]));
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
      which = 1 - which;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<ClientReport> reports(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(run_client, server.port(), i, &reports[i]);
  }
  for (auto& c : clients) c.join();
  stop_swapper.store(true, std::memory_order_release);
  swapper.join();

  std::int64_t total = 0;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(reports[i].failure, "") << "client " << i;
    EXPECT_EQ(reports[i].completions, kRequestsPerClient) << "client " << i;
    total += reports[i].completions;
  }
  EXPECT_EQ(total, kClients * kRequestsPerClient);
  EXPECT_GT(swaps.load(), 0) << "swapper never flipped a version -- the "
                                "test did not exercise hot swap";

  // Drain: once no batch is in flight, every retired snapshot's last
  // strong reference is gone and the live gauge falls back to the
  // registered count. Bounded poll, not a sleep.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry->live_models() != registry->size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(registry->live_models(), registry->size())
      << "retired model snapshots still pinned after the flood drained";

  server.stop();
  EXPECT_EQ(server.requests_served(), total);

  // The per-model request counters split the served total by model id:
  // every request counted once, under the id its client targeted.
  const obs::Snapshot snap = server.metrics().snapshot();
  std::int64_t per_model_sum = 0;
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.name.rfind("edge.server.model.", 0) == 0) per_model_sum += c.value;
  }
  EXPECT_EQ(per_model_sum, server.requests_served());
  for (const std::uint32_t id : kModelIds) {
    const auto* c =
        snap.find_counter(obs::names::model_metric(id, "requests"));
    ASSERT_NE(c, nullptr) << "model " << id;
    EXPECT_EQ(c->value, kClients / 2 * kRequestsPerClient) << "model " << id;
  }
}

/// A client whose model is evicted mid-flood keeps its connection and
/// starts drawing kModelUnavailable -- requests are rejected, never
/// dropped or misrouted to another model.
TEST(ModelSwap, EvictionRejectsWithoutDroppingConnections) {
  auto registry = std::make_shared<edge::ModelRegistry>();
  registry->install(tagged_model(1, 1));
  registry->install(tagged_model(2, 1));

  edge::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 32;
  edge::EdgeServer server(0, registry, opts);

  edge::Socket sock = edge::connect_local(server.port());
  Rng rng(31);
  const Tensor t = Tensor::randn(Shape{1, 2, 4, 4}, rng);

  auto roundtrip = [&](std::uint32_t model_id) {
    sock.send_frame(edge::Frame{edge::MsgType::kCompleteRequest,
                                edge::make_complete_request(t),
                                /*trace_id=*/0, model_id},
                    edge::Deadline::after_ms(kIoDeadlineMs));
    const std::optional<edge::Frame> reply =
        sock.recv_frame(edge::Deadline::after_ms(kIoDeadlineMs));
    EXPECT_TRUE(reply.has_value());
    return reply;
  };

  auto reply = roundtrip(2);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, edge::MsgType::kCompleteResponse);

  EXPECT_TRUE(registry->evict(2));
  EXPECT_FALSE(registry->evict(2));  // second evict: nothing left

  reply = roundtrip(2);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, edge::MsgType::kModelUnavailable);
  EXPECT_EQ(edge::parse_model_unavailable(reply->payload), 2u);
  EXPECT_EQ(reply->model_id, 2u);

  // The same connection still completes against the surviving model.
  reply = roundtrip(1);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, edge::MsgType::kCompleteResponse);

  server.stop();
  EXPECT_EQ(server.rejected_unknown_model(), 1);
}

}  // namespace
}  // namespace lcrs
