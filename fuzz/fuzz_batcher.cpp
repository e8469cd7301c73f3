// Structure-aware batcher/demux harness: replays fuzz-generated request
// interleavings through the PR-5 batch-queue state machine over real
// loopback sockets.
//
// The input decodes to a bounded op script over up to 3 client slots:
// connect, send a request (one of three shapes, so same-shape coalescing
// and batch cuts both happen; one of three model targets, so per-model
// queues and unknown-model rejection both happen), receive a reply,
// ping, abrupt close, inject garbage bytes, or mutate the model registry
// (install the next version of the alt model / evict it). The server is
// deliberately tiny (1-slot admission headroom, batching window enabled)
// so busy rejection, coalescing, and demux all trigger within a few ops.
//
// Oracles:
//   * Demux: every kCompleteResponse carries a label computed from the
//     request tensor itself plus a per-model offset, so a response
//     routed to the wrong connection, the wrong request on one
//     connection, or the wrong *model* is caught; the echoed response
//     model id must match the request's.
//   * Reply discipline: per connection, replies arrive FIFO, exactly one
//     per request (kCompleteResponse, kBusy, or kModelUnavailable --
//     which types are legal depends on the model id, see ExpectedReply).
//   * Liveness: after every script, a fresh client must connect, ping,
//     and complete one request within a deadline -- a wedged queue or a
//     dead worker pool fails here instead of hanging the fuzzer.
#include <array>
#include <atomic>
#include <cmath>
#include <deque>
#include <optional>

#include "edge/model_registry.h"
#include "edge/server.h"
#include "edge/tcp.h"
#include "fuzz_util.h"

using namespace lcrs;

namespace {

constexpr int kMaxClients = 3;
constexpr int kMaxOps = 48;
constexpr double kIoDeadlineMs = 5000.0;

/// The second registered model; swap/evict ops target it so model 0 (the
/// default that untagged frames route to) is always servable.
constexpr std::uint32_t kAltModelId = 2;
/// Never registered: requests carrying it must draw kModelUnavailable.
constexpr std::uint32_t kUnknownModelId = 77;

const Shape& shape_menu(std::int64_t i) {
  static const std::array<Shape, 3> menu = {
      Shape{1, 2, 4, 4}, Shape{1, 3, 3, 3}, Shape{1, 1, 8, 8}};
  return menu[static_cast<std::size_t>(i % 3)];
}

/// The label the completion derives from a request row. Client and
/// server run this same function on bit-identical floats, so agreement
/// is exact.
std::int64_t row_label(const float* p, std::int64_t n) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) sum += static_cast<double>(p[i]);
  return static_cast<std::int64_t>(std::llround(sum * 16.0));
}

/// Per-model label offset: a response computed by the wrong model's
/// completion is off by a multiple of 1000 and trips the demux oracle.
/// Versions share the offset, so hot-swapping kAltModelId never changes
/// what a correct response looks like -- the swap machinery is exercised
/// without making the FIFO oracle racy.
std::int64_t model_label_offset(std::uint32_t model_id) {
  return static_cast<std::int64_t>(model_id) * 1000;
}

edge::BatchCompletionFn make_batch_complete(std::uint32_t model_id) {
  return [model_id](const Tensor& batch) {
    const std::int64_t k = batch.dim(0);
    const std::int64_t per = batch.numel() / k;
    std::vector<edge::CompleteResponse> out;
    out.reserve(static_cast<std::size_t>(k));
    for (std::int64_t i = 0; i < k; ++i) {
      edge::CompleteResponse resp;
      resp.label = row_label(batch.data() + i * per, per) +
                   model_label_offset(model_id);
      // Echo the batch size so coalescing is observable in responses.
      resp.probabilities =
          Tensor(Shape{1}, std::vector<float>{static_cast<float>(k)});
      out.push_back(std::move(resp));
    }
    return out;
  };
}

/// Versions must increase monotonically per model id across the whole
/// fuzz run (the registry enforces it), so the swap op draws from one
/// counter shared by every execution.
std::atomic<std::uint32_t> g_alt_version{1};

/// One persistent server across all fuzz executions: restarting per input
/// would fuzz construction, not the queue state machine.
edge::EdgeServer& server() {
  static edge::EdgeServer s(
      0,
      [] {
        auto registry = std::make_shared<edge::ModelRegistry>();
        registry->install(edge::ServableModel::from_fn(
            0, 1, "default", make_batch_complete(0)));
        registry->install(edge::ServableModel::from_fn(
            kAltModelId, g_alt_version.fetch_add(1), "alt",
            make_batch_complete(kAltModelId)));
        return registry;
      }(),
      [] {
        edge::ServerOptions o;
        o.num_workers = 2;
        o.max_batch = 3;
        o.max_wait_us = 300.0;   // leave the coalescing window open
        o.queue_capacity = 2;    // third concurrent request draws kBusy
        o.busy_retry_after_ms = 1;
        return o;
      }());
  return s;
}

/// What a send promised: which model it targeted and the label a
/// completion must carry. Which reply *types* are legal depends only on
/// the id: the server resolves the registry when it reads the frame,
/// which (behind an in-flight request on the same connection) can be
/// after later swap/evict ops, so "was the alt model installed at send
/// time" is not assertable in either direction. Model 0 is never evicted
/// and kUnknownModelId is never installed -- those two stay strict.
struct ExpectedReply {
  std::int64_t label = 0;
  std::uint32_t model_id = 0;
};

struct ClientSlot {
  std::optional<edge::Socket> sock;
  std::deque<ExpectedReply> expected;  // FIFO for outstanding requests

  bool alive() const { return sock.has_value(); }
  void drop() {
    sock.reset();
    expected.clear();
  }
};

edge::Deadline io_deadline() {
  return edge::Deadline::after_ms(kIoDeadlineMs);
}

void op_send_request(fuzz::FuzzInput* in, ClientSlot* c) {
  // Model selector: weighted toward the always-present default so most
  // scripts still stress coalescing, with the alt and unknown ids mixed
  // in to interleave per-model queues and the rejection path.
  const std::int64_t sel = in->take_range(0, 3);
  const std::uint32_t model_id =
      sel <= 1 ? 0 : (sel == 2 ? kAltModelId : kUnknownModelId);
  const Shape& shape = shape_menu(in->take_range(0, 2));
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) t.data()[i] = in->take_f32();
  edge::Frame frame{edge::MsgType::kCompleteRequest,
                    edge::make_complete_request(t),
                    /*trace_id=*/in->take_u8(),  // 0 = untraced
                    model_id};                   // 0 = default model
  c->sock->send_frame(frame, io_deadline());
  c->expected.push_back(ExpectedReply{
      row_label(t.data(), t.numel()) + model_label_offset(model_id),
      model_id});
}

void op_recv_reply(ClientSlot* c) {
  if (c->expected.empty()) return;  // nothing outstanding: would block
  const std::optional<edge::Frame> reply =
      c->sock->recv_frame(io_deadline());
  if (!reply.has_value()) {  // server closed on us (e.g. after garbage)
    c->drop();
    return;
  }
  const ExpectedReply want = c->expected.front();
  c->expected.pop_front();
  // Every reply to a tagged request must echo the request's model id.
  FUZZ_ASSERT(reply->model_id == want.model_id,
              "reply model id does not echo the request's");
  if (reply->type == edge::MsgType::kBusy) {
    (void)edge::parse_busy_reply(reply->payload);  // must parse cleanly
    FUZZ_ASSERT(want.model_id != kUnknownModelId,
                "unknown-model request drew kBusy, not kModelUnavailable");
    return;  // admission-rejected: no completion for this request
  }
  if (reply->type == edge::MsgType::kModelUnavailable) {
    FUZZ_ASSERT(edge::parse_model_unavailable(reply->payload) ==
                    want.model_id,
                "kModelUnavailable names a different model than requested");
    // Legal for kAltModelId (an evict may land before the server reads
    // the frame); for model 0 it is always a routing bug.
    FUZZ_ASSERT(want.model_id != 0, "default model reported unavailable");
    return;
  }
  FUZZ_ASSERT(reply->type == edge::MsgType::kCompleteResponse,
              "unexpected reply type for an outstanding request");
  FUZZ_ASSERT(want.model_id != kUnknownModelId,
              "unknown-model request got a completion");
  const edge::CompleteResponse resp =
      edge::parse_complete_response(reply->payload);
  FUZZ_ASSERT(resp.label == want.label,
              "demux error: response label does not match this "
              "connection's FIFO request (wrong request or wrong model)");
}

/// Registry mutation: install the next version of the alt model (a hot
/// swap when it is already present) or evict it. The completion is
/// re-created each install but computes the same labels, so in-flight
/// requests pinned to the old snapshot still satisfy the oracle.
void op_swap_model(fuzz::FuzzInput* in) {
  if (in->take_u8() % 2 == 0) {
    server().registry()->install(edge::ServableModel::from_fn(
        kAltModelId, g_alt_version.fetch_add(1), "alt",
        make_batch_complete(kAltModelId)));
  } else {
    server().registry()->evict(kAltModelId);
  }
}

void op_ping(ClientSlot* c) {
  if (!c->expected.empty()) return;  // keep the FIFO oracle simple
  c->sock->send_frame(edge::Frame{edge::MsgType::kPing, {}}, io_deadline());
  const std::optional<edge::Frame> reply =
      c->sock->recv_frame(io_deadline());
  if (!reply.has_value()) {
    c->drop();
    return;
  }
  FUZZ_ASSERT(reply->type == edge::MsgType::kPong, "ping answered non-pong");
}

void op_garbage(fuzz::FuzzInput* in, ClientSlot* c) {
  std::uint8_t junk[16];
  for (auto& b : junk) b = in->take_u8();
  c->sock->send_all(junk, sizeof(junk), io_deadline());
  // Fewer bytes than one frame header: the server waits for the rest,
  // rejects the stream once this slot's next frame completes the header
  // (or sees EOF when the slot closes), and hangs up. This slot may see
  // EOF on its next use and drops then.
  c->expected.clear();
}

/// Post-script liveness probe: the server must still accept, ping, and
/// complete -- within a deadline, so a wedged state machine is a failure,
/// not a hang.
void check_server_alive() {
  edge::Socket probe = edge::connect_local(server().port());
  probe.send_frame(edge::Frame{edge::MsgType::kPing, {}}, io_deadline());
  std::optional<edge::Frame> reply = probe.recv_frame(io_deadline());
  FUZZ_ASSERT(reply.has_value() && reply->type == edge::MsgType::kPong,
              "server stopped answering pings after a fuzzed script");

  Tensor t = Tensor::full(shape_menu(0), 0.5f);
  probe.send_frame(edge::Frame{edge::MsgType::kCompleteRequest,
                               edge::make_complete_request(t)},
                   io_deadline());
  reply = probe.recv_frame(io_deadline());
  FUZZ_ASSERT(reply.has_value(), "server hung up on the liveness probe");
  if (reply->type == edge::MsgType::kCompleteResponse) {
    const edge::CompleteResponse resp =
        edge::parse_complete_response(reply->payload);
    FUZZ_ASSERT(resp.label == row_label(t.data(), t.numel()),
                "liveness probe got a wrong-label response");
  } else {
    // A kBusy here is legal (stragglers from the script may still hold
    // the queue); anything else is not.
    FUZZ_ASSERT(reply->type == edge::MsgType::kBusy,
                "liveness probe got an unexpected reply type");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 12)) return 0;
  fuzz::FuzzInput in(data, size);
  std::array<ClientSlot, kMaxClients> clients;

  for (int op = 0; op < kMaxOps && !in.empty(); ++op) {
    auto& c = clients[static_cast<std::size_t>(
        in.take_range(0, kMaxClients - 1))];
    const std::int64_t action = in.take_range(0, 6);
    if (action == 6) {  // registry mutation: no connection involved
      op_swap_model(&in);
      continue;
    }
    try {
      if (!c.alive()) {
        if (action == 4) continue;  // close of a dead slot: no-op
        c.sock = edge::connect_local(server().port());
      }
      switch (action) {
        case 0: break;  // connect only
        case 1: op_send_request(&in, &c); break;
        case 2: op_recv_reply(&c); break;
        case 3: op_ping(&c); break;
        case 4: c.drop(); break;  // abrupt close, replies abandoned
        default: op_garbage(&in, &c); break;
      }
    } catch (const IoError&) {
      // Torn connections (garbage-poisoned, server-closed, timed out)
      // are part of the state space; the slot just dies.
      c.drop();
    }
  }
  for (auto& c : clients) c.drop();
  check_server_alive();
  return 0;
}
