#include "edge/server.h"

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/obs/flight_recorder.h"
#include "common/obs/ops_server.h"
#include "common/obs/trace.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/inference.h"
#include "tensor/tensor_ops.h"

namespace lcrs::edge {

BatchCompletionFn per_sample_batch(CompletionFn per_sample) {
  LCRS_CHECK(per_sample != nullptr, "per_sample_batch needs a completion fn");
  return [per_sample = std::move(per_sample)](const Tensor& batch) {
    LCRS_CHECK(batch.rank() >= 1 && batch.dim(0) >= 1,
               "batch completion needs a non-empty outer dimension");
    std::vector<CompleteResponse> out;
    out.reserve(static_cast<std::size_t>(batch.dim(0)));
    for (std::int64_t i = 0; i < batch.dim(0); ++i) {
      out.push_back(per_sample(batch.slice_outer(i, i + 1)));
    }
    return out;
  };
}

BatchCompletionFn main_branch_batch_completion(core::CompositeNetwork& net) {
  // Prepare the main-rest weights up front: Linear gets the transposed
  // layout (a batch of k requests streams each weight matrix once
  // instead of k times). Done here (single-threaded, before any worker
  // runs) so eval forwards stay lock-free.
  net.prepare_edge_inference();
  return [&net](const Tensor& batch) {
    const core::MainBatchCompletion done =
        core::complete_main_batch(net, batch);
    std::vector<CompleteResponse> out;
    const std::int64_t k = batch.dim(0);
    out.reserve(static_cast<std::size_t>(k));
    for (std::int64_t i = 0; i < k; ++i) {
      CompleteResponse r;
      r.label = done.labels[static_cast<std::size_t>(i)];
      // Row i of the batched softmax, kept as [1, num_classes] exactly as
      // the per-sample path would produce it (bit-identical rows).
      r.probabilities = done.probabilities.slice_outer(i, i + 1);
      out.push_back(std::move(r));
    }
    return out;
  };
}

void ServerOptions::validate() const {
  LCRS_CHECK(num_workers >= 1, "ServerOptions.num_workers must be >= 1, got "
                                   << num_workers);
  LCRS_CHECK(max_batch >= 1,
             "ServerOptions.max_batch must be >= 1, got " << max_batch);
  LCRS_CHECK(max_wait_us >= 0.0,
             "ServerOptions.max_wait_us must be >= 0, got " << max_wait_us);
  LCRS_CHECK(ops_port <= 65535,
             "ServerOptions.ops_port must be <= 65535, got " << ops_port);
}

namespace {
std::shared_ptr<ModelRegistry> default_registry(BatchCompletionFn complete) {
  LCRS_CHECK(complete != nullptr, "edge server needs a completion fn");
  auto registry = std::make_shared<ModelRegistry>();
  registry->install(
      ServableModel::from_fn(0, 1, "default", std::move(complete)));
  return registry;
}
}  // namespace

EdgeServer::EdgeServer(std::uint16_t port, CompletionFn complete,
                       ServerOptions options)
    : EdgeServer(port, per_sample_batch(std::move(complete)),
                 std::move(options)) {}

EdgeServer::EdgeServer(std::uint16_t port, BatchCompletionFn complete,
                       ServerOptions options)
    : EdgeServer(port, default_registry(std::move(complete)),
                 std::move(options)) {}

EdgeServer::EdgeServer(std::uint16_t port,
                       std::shared_ptr<ModelRegistry> registry,
                       ServerOptions options)
    : listener_(port), registry_(std::move(registry)), opts_(options) {
  LCRS_CHECK(registry_ != nullptr, "edge server needs a model registry");
  opts_.validate();
  // Process/config gauges: registered up front so the very first scrape
  // (or any /statusz probe) already sees the serving shape.
  obs::register_process_gauges();
  metrics_.gauge(obs::names::kServerWorkerPoolSize)
      .set(static_cast<double>(opts_.num_workers));
  metrics_.gauge(obs::names::kServerMaxBatch)
      .set(static_cast<double>(opts_.max_batch));
  ready_gauge_.set(1.0);
  workers_.reserve(static_cast<std::size_t>(opts_.num_workers));
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  if (opts_.ops_port >= 0) {
    // The ops plane implies tail sampling: every request trace becomes
    // explorable at /tracez while this server is alive.
    flight_prev_ = obs::flight_recording_enabled();
    obs::set_flight_recording_enabled(true);
    obs::OpsHooks hooks;
    hooks.registries = {&obs::Registry::global(), &metrics_,
                        &registry_->metrics()};
    hooks.ready = [this] { return ready(); };
    hooks.status_json = [this] { return status_json(); };
    ops_ = std::make_unique<obs::OpsServer>(
        static_cast<std::uint16_t>(opts_.ops_port), std::move(hooks));
    LCRS_DEBUG("ops plane listening on 127.0.0.1:" << ops_->port());
  }
  LCRS_DEBUG("edge server listening on 127.0.0.1:"
             << listener_.port() << " (" << opts_.num_workers
             << " workers, max batch " << opts_.max_batch << ")");
}

EdgeServer::~EdgeServer() { stop(); }

std::uint16_t EdgeServer::ops_port() const {
  return ops_ != nullptr ? ops_->port() : 0;
}

void EdgeServer::set_ready(bool ready) {
  ready_.store(ready);
  ready_gauge_.set(ready ? 1.0 : 0.0);
}

std::string EdgeServer::status_json() const {
  std::ostringstream os;
  os << "{\"uptime_seconds\":" << obs::process_uptime_seconds()
     << ",\"simd_level\":\"" << simd::level_name(simd::active_level())
     << "\",\"build\":\"" << (obs::build_optimized() ? "release" : "debug")
     << "\",\"compiler\":\"" << obs::json_escape(__VERSION__)
     << "\",\"port\":" << listener_.port()
     << ",\"ops_port\":" << (ops_ != nullptr ? ops_->port() : 0)
     << ",\"ready\":" << (ready() ? "true" : "false")
     << ",\"num_workers\":" << opts_.num_workers
     << ",\"max_batch\":" << opts_.max_batch
     << ",\"max_wait_us\":" << opts_.max_wait_us
     << ",\"queue_capacity\":" << opts_.queue_capacity
     << ",\"busy_retry_after_ms\":" << opts_.busy_retry_after_ms
     << ",\"requests_served\":" << requests_.value()
     << ",\"connections_accepted\":" << accepted_.value()
     << ",\"rejected_busy\":" << rejected_busy_.value()
     << ",\"rejected_unknown_model\":" << rejected_model_.value()
     << ",\"queue_depth\":" << queue_depth();
  os << ",\"models\":[";
  bool first = true;
  for (const auto& m : registry_->list()) {
    if (!first) os << ',';
    first = false;
    os << "{\"id\":" << m->model_id << ",\"version\":" << m->version
       << ",\"name\":\"" << obs::json_escape(m->name) << "\"}";
  }
  os << "],\"models_live\":" << registry_->live_models() << '}';
  return os.str();
}

void EdgeServer::request_stop() {
  set_ready(false);  // eject from LB rotation before tearing anything down
  stopping_.store(true);
  listener_.shutdown_now();
  // Wake every connection thread blocked in recv_frame: shutdown() makes
  // the pending recv return EOF without racing the thread for the fd (the
  // fd stays open until the Connection record is destroyed).
  {
    MutexLock lock(conns_mutex_);
    for (auto& c : connections_) {
      if (c.sock) c.sock->shutdown_now();
    }
  }
  // Flush undispatched requests and wake the workers. Admission re-checks
  // stopping_ under queue_mutex_, so nothing can slip into a queue
  // after this swap: any enqueue ordered after it observes stopping_ and
  // backs out. Slots are failed *outside* the lock -- queue_mutex_ stays
  // a leaf that is never held while touching a slot mutex.
  std::map<std::uint32_t, std::deque<PendingRequest>> flushed;
  std::size_t flushed_total = 0;
  {
    MutexLock lock(queue_mutex_);
    flushed.swap(queues_);
    flushed_total = queued_total_;
    queued_total_ = 0;
    queue_cv_.notify_all();
  }
  if (flushed_total > 0) {
    queue_depth_.add(-static_cast<double>(flushed_total));
  }
  for (auto& [id, q] : flushed) {
    for (auto& r : q) {
      fulfill(*r.slot, false, CompleteResponse{}, "server stopping");
    }
  }
}

void EdgeServer::stop() {
  // Not gated on stopping_: a client's kShutdown frame sets that flag from
  // a connection thread, and stop() must still join everything after it.
  MutexLock stop_lock(stop_mutex_);
  request_stop();
  if (acceptor_.joinable()) acceptor_.join();
  // Workers drain to "stopping and queue empty" and exit; every request
  // they still held has been fulfilled by then, so no connection thread
  // is left waiting on a slot.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Join without holding conns_mutex_: a connection thread that received
  // kShutdown may itself be inside request_stop() waiting for the lock.
  std::vector<Connection> conns;
  {
    MutexLock lock(conns_mutex_);
    conns.swap(connections_);
  }
  for (auto& c : conns) {
    if (c.thread.joinable()) c.thread.join();
  }
  // The ops plane outlives the serving path inside stop() so /readyz
  // reports "draining" for as long as requests can still be in flight;
  // it goes down last.
  if (ops_ != nullptr) {
    ops_->stop();
    obs::set_flight_recording_enabled(flight_prev_);
  }
}

std::int64_t EdgeServer::queue_depth() const {
  MutexLock lock(queue_mutex_);
  return static_cast<std::int64_t>(queued_total_);
}

void EdgeServer::collect_finished_locked(std::vector<Connection>* out) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load()) {
      out->push_back(std::move(*it));
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void EdgeServer::accept_loop() {
  while (!stopping_.load()) {
    Socket conn;
    try {
      conn = listener_.accept_one();
    } catch (const IoError& e) {
      if (stopping_.load()) break;
      LCRS_WARN("edge accept failed: " << e.what());
      continue;
    }
    if (!conn.valid()) break;  // listener shut down
    accepted_.add();

    auto done = std::make_shared<std::atomic<bool>>(false);
    // Socket is move-only and std::function must be copyable, so the
    // connection lives in a shared_ptr; stop() uses the same pointer to
    // shut the socket down underneath a blocked recv.
    auto conn_ptr = std::make_shared<Socket>(std::move(conn));
    std::thread handler([this, conn_ptr, done] {
      active_connections_.add(1.0);
      try {
        serve_connection(*conn_ptr);
      } catch (const Error& e) {
        // A broken client connection must not take the server down.
        connection_errors_.add();
        LCRS_WARN("edge connection error: " << e.what());
      }
      // Hang up now rather than when the next accept reaps this thread,
      // so a peer that sent a bad frame sees EOF instead of silence.
      conn_ptr->shutdown_now();
      active_connections_.add(-1.0);
      done->store(true);
    });

    std::vector<Connection> finished;
    {
      MutexLock lock(conns_mutex_);
      collect_finished_locked(&finished);
      // If stop() ran between accept and here it has already swept the
      // list; shut this socket down now so the handler exits promptly.
      if (stopping_.load()) conn_ptr->shutdown_now();
      connections_.push_back(
          Connection{std::move(handler), conn_ptr, std::move(done)});
    }
    // Join finished threads outside the lock: holding conns_mutex_
    // across a join would block request_stop() (and with it, shutdown
    // convergence) on an unrelated thread's exit path.
    for (auto& c : finished) {
      if (c.thread.joinable()) c.thread.join();
    }
  }
}

void EdgeServer::serve_connection(Socket& conn) {
  while (!stopping_.load()) {
    std::optional<Frame> frame = conn.recv_frame();
    if (!frame.has_value()) return;  // client hung up (or we shut down)
    switch (frame->type) {
      case MsgType::kPing:
        conn.send_frame(Frame{MsgType::kPong, {}});
        break;
      case MsgType::kCompleteRequest: {
        // The trace id minted by BrowserClient rides the frame header;
        // tagging the server-side spans with it (and echoing it in the
        // response) is what stitches both halves into one timeline.
        const std::uint64_t trace_id = frame->trace_id;
        // Resolve the model snapshot before deserializing: an
        // unroutable request should be rejected for the price of a map
        // lookup, and the snapshot resolved here is the one that
        // answers the request no matter what the registry does next.
        std::shared_ptr<const ServableModel> model =
            registry_->lookup(frame->model_id);
        if (model == nullptr) {
          rejected_model_.add();
          obs::flight_record_finish(trace_id, false,
                                    "edge.model_unavailable");
          conn.send_frame(Frame{MsgType::kModelUnavailable,
                                make_model_unavailable(frame->model_id),
                                trace_id, frame->model_id});
          break;
        }
        Tensor shared;
        {
          obs::Span span(trace_id, obs::names::kSpanEdgeDeserialize);
          shared = parse_complete_request(frame->payload);
        }
        serve_request_queued(conn, std::move(shared), trace_id,
                             std::move(model));
        break;
      }
      case MsgType::kShutdown:
        // Close the listener AND every live peer, so stop() converges
        // instead of waiting for other clients to hang up on their own.
        request_stop();
        return;
      default:
        throw ParseError("unexpected frame type at server");
    }
  }
}

void EdgeServer::serve_request_queued(
    Socket& conn, Tensor shared, std::uint64_t trace_id,
    std::shared_ptr<const ServableModel> model) {
  const std::uint32_t model_id = model->model_id;
  auto slot = std::make_shared<ResponseSlot>();
  enum class Admission { kAdmitted, kFull, kStopping };
  Admission admission = Admission::kAdmitted;
  {
    MutexLock lock(queue_mutex_);
    if (stopping_.load()) {
      // request_stop() has flushed (or is flushing) the queue; anything
      // enqueued now would hang forever. The peer socket is already shut
      // down, so close quietly and let the client's retry path handle it.
      admission = Admission::kStopping;
    } else if (opts_.queue_capacity > 0 &&
               queued_total_ >= opts_.queue_capacity) {
      admission = Admission::kFull;
    } else {
      queues_[model_id].push_back(PendingRequest{
          std::move(shared), trace_id, std::move(model), Stopwatch(), slot});
      ++queued_total_;
      queue_depth_.add(1.0);
      queue_cv_.notify_one();
    }
  }
  if (admission == Admission::kStopping) return;
  if (admission == Admission::kFull) {
    // Backpressure: answer kBusy instead of buffering without bound. The
    // connection stays healthy and in sync -- the client may retry on it.
    rejected_busy_.add();
    // Tagged but not flagged as an error: the client retries under the
    // same trace id and usually lands, so the merged trace reads
    // "edge.busy,...,edge.served".
    obs::flight_record_finish(trace_id, false, "edge.busy");
    conn.send_frame(Frame{MsgType::kBusy,
                          make_busy_reply(opts_.busy_retry_after_ms),
                          trace_id});
    return;
  }

  CompleteResponse response;
  bool completed_ok = false;
  std::string completion_error;
  {
    MutexLock lock(slot->mutex);
    while (!slot->ready) slot->cv.wait(slot->mutex);
    completed_ok = slot->ok;
    if (completed_ok) {
      response = std::move(slot->response);
    } else {
      completion_error = slot->error;
    }
  }
  if (!completed_ok) {
    // Recorded outside the slot lock: the recorder mutex stays a leaf
    // acquired with no other lock held.
    obs::flight_record_finish(trace_id, true,
                              "edge.completion_failed: " + completion_error);
    throw IoError("edge completion failed: " + completion_error);
  }
  {
    obs::Span span(trace_id, obs::names::kSpanEdgeSerialize);
    conn.send_frame(Frame{MsgType::kCompleteResponse,
                          make_complete_response(response), trace_id,
                          model_id});
  }
  requests_.add();
  metrics_.counter(obs::names::model_metric(model_id, "requests")).add();
  obs::flight_record_finish(trace_id, false, "edge.served");
}

void EdgeServer::worker_loop() {
  while (true) {
    std::vector<PendingRequest> batch = next_batch();
    if (batch.empty()) return;  // stopping and drained
    dispatch_batch(&batch);
  }
}

std::vector<EdgeServer::PendingRequest> EdgeServer::next_batch() {
  std::vector<PendingRequest> batch;
  MutexLock lock(queue_mutex_);
  while (queued_total_ == 0 && !stopping_.load()) queue_cv_.wait(queue_mutex_);
  if (queued_total_ == 0) return batch;

  // Round-robin across model queues: start at the first id after the
  // cursor, wrapping, so a hot model cannot starve the others. Empty
  // deques stay in the map (bounded by the number of distinct ids seen),
  // so the scan is O(#models).
  auto it = queues_.upper_bound(rr_cursor_);
  while (it != queues_.end() && it->second.empty()) ++it;
  if (it == queues_.end()) {
    it = queues_.begin();
    while (it->second.empty()) ++it;  // queued_total_ > 0 guarantees one
  }
  rr_cursor_ = it->first;
  std::deque<PendingRequest>& queue = it->second;

  batch.push_back(std::move(queue.front()));
  queue.pop_front();
  --queued_total_;
  // Coalesce same-shaped followers *served by the same snapshot*: a
  // pointer-unequal snapshot is a different model generation, and mixing
  // generations in one forward would break the per-version bit-exactness
  // contract. With max_wait_us == 0 the batch is cut the instant the
  // queue drains: an unloaded server adds zero latency, and batches only
  // form from requests that were already waiting. A positive window lets
  // a worker linger for stragglers.
  const bool may_wait = opts_.max_wait_us > 0.0;
  const Deadline window = may_wait
                              ? Deadline::after_ms(opts_.max_wait_us / 1e3)
                              : Deadline();
  while (static_cast<int>(batch.size()) < opts_.max_batch) {
    if (!queue.empty()) {
      if (!queue.front().shared.same_shape(batch.front().shared)) break;
      if (queue.front().model.get() != batch.front().model.get()) break;
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
      --queued_total_;
      continue;
    }
    if (!may_wait || stopping_.load() || window.expired()) break;
    // Early cut: a request/response client blocks until its reply, so each
    // live connection contributes at most one outstanding request. Once
    // every connection is accounted for -- in this batch or still queued
    // (for any model) -- no straggler can arrive until a response goes
    // out, and lingering for the rest of the window would be pure added
    // latency. (Pipelined clients just get their extras coalesced into
    // the next batch.)
    if (static_cast<double>(batch.size() + queued_total_) >=
        active_connections_.value()) {
      break;
    }
    const auto wait_us =
        static_cast<std::int64_t>(window.remaining_ms() * 1e3) + 1;
    queue_cv_.wait_for_us(queue_mutex_, wait_us);
    // The wait released the lock, so request_stop() may have swapped
    // queues_ out and freed `queue`. It sets stopping_ before the swap.
    if (stopping_.load()) break;
  }
  queue_depth_.add(-static_cast<double>(batch.size()));
  return batch;
}

void EdgeServer::dispatch_batch(std::vector<PendingRequest>* batch) {
  const std::size_t k = batch->size();
  batch_size_.record(static_cast<double>(k));
  for (const auto& r : *batch) {
    queue_wait_us_.record(r.queued.micros());
  }
  // One kSpanEdgeComplete span per member, tagged with that member's own
  // trace id: batching must not blur per-request timelines. Destroyed
  // (closed) together right after the batched forward finishes.
  std::vector<std::unique_ptr<obs::Span>> spans;
  spans.reserve(k);
  for (const auto& r : *batch) {
    spans.push_back(
        std::make_unique<obs::Span>(r.trace_id, obs::names::kSpanEdgeComplete));
  }

  // next_batch guarantees every member holds the same snapshot, so the
  // batch dispatches against exactly one model generation; the strong
  // reference in the batch keeps that generation alive even if the
  // registry swapped it out while the batch waited.
  const ServableModel& model = *batch->front().model;
  Stopwatch watch;
  std::vector<CompleteResponse> responses;
  bool ok = true;
  std::string error;
  try {
    if (k == 1) {
      responses = model.complete(batch->front().shared);
    } else {
      std::vector<Tensor> parts;
      parts.reserve(k);
      for (auto& r : *batch) parts.push_back(std::move(r.shared));
      responses = model.complete(stack_outer(parts));
    }
    if (ok && responses.size() != k) {
      ok = false;
      error = "batch completion returned " + std::to_string(responses.size()) +
              " responses for " + std::to_string(k) + " requests";
    }
  } catch (const Error& e) {
    ok = false;
    error = e.what();
  }
  completion_us_.record(watch.micros());
  spans.clear();
  batches_.add();

  for (std::size_t i = 0; i < k; ++i) {
    fulfill(*(*batch)[i].slot, ok,
            ok ? std::move(responses[i]) : CompleteResponse{}, error);
  }
}

void EdgeServer::fulfill(ResponseSlot& slot, bool ok,
                         CompleteResponse response, const std::string& error) {
  {
    MutexLock lock(slot.mutex);
    slot.ready = true;
    slot.ok = ok;
    slot.response = std::move(response);
    slot.error = error;
  }
  slot.cv.notify_one();
}

}  // namespace lcrs::edge
