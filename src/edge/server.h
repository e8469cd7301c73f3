// Edge server hosting the main branch (paper Fig. 1/8).
//
// Throughput-oriented serving path. Connection threads only do protocol
// I/O: every kCompleteRequest resolves its model snapshot from the
// ModelRegistry (by the frame header's model id; 0 is the default model)
// and is enqueued on that model's bounded queue, and a shared pool of
// worker threads drains the queues round-robin, coalescing same-model
// requests *across connections* into one batched main-branch forward
// (im2col+GEMM throughput grows strongly with batch size, which is
// exactly the amortization Neurosurgeon-style edge offloading exploits).
// Responses are demultiplexed back to the originating connection through
// per-request response slots; each request's trace id rides through the
// batch untouched, so stitched client/server timelines survive batching.
//
// Hot-swap: an operator thread loads+prepares a new model generation off
// the serving path and install()s it into the registry; requests admitted
// before the flip finish against the old snapshot (their shared_ptr keeps
// it alive), requests admitted after see only the new one. See
// edge/model_registry.h for the snapshot lifetime rules.
//
// The batch path is numerically identical per-sample to the sequential
// path: every layer in the main rest is row-independent in eval mode, so
// row i of a [k,...] forward is bit-for-bit the [1,...] forward of
// request i (tests/test_property_batch.cpp proves this layer by layer,
// tests/test_edge_load.cpp end to end over live sockets).
//
// Admission control: the queue is bounded. When it is full the
// connection thread answers kBusy (with a retry-after hint) instead of
// buffering without bound, so overload degrades into the client's
// existing retry/backoff/local-fallback path rather than into unbounded
// memory growth and collapse.
//
// Shutdown is convergent: stop() (and a kShutdown frame from any client)
// shuts down every live peer socket, flushes the queue (failing the
// flushed requests' slots so their connection threads unwind), wakes the
// workers, and joins everything.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "edge/model_registry.h"
#include "edge/tcp.h"

namespace lcrs::core {
class CompositeNetwork;
}  // namespace lcrs::core

namespace lcrs::obs {
class OpsServer;  // common/obs/ops_server.h (included by server.cpp)
}  // namespace lcrs::obs

namespace lcrs::edge {

// CompletionFn / BatchCompletionFn live in edge/model_registry.h (a
// ServableModel snapshot carries the batched completion).

/// Adapts a per-sample completion to the batch interface by slicing the
/// batch and completing rows one at a time. Correct for any completion
/// but forfeits GEMM amortization; prefer main_branch_batch_completion.
BatchCompletionFn per_sample_batch(CompletionFn per_sample);

/// The real batched edge completion: one core::complete_main_batch
/// Sequential forward over the whole stack. Eval-mode forwards are
/// thread-safe, so workers call it concurrently without a lock.
BatchCompletionFn main_branch_batch_completion(core::CompositeNetwork& net);

/// Serving-path configuration. Defaults favor throughput with no added
/// latency when idle: workers cut a batch as soon as the queue drains
/// (max_wait_us == 0), so an unloaded server completes each request
/// alone as it arrives, and batches only form when requests actually
/// queue up.
struct ServerOptions {
  int num_workers = 2;  // worker pool size (>= 1)

  /// Max requests coalesced into one batched forward (>= 1).
  int max_batch = 8;

  /// After popping the first request of a batch, how long a worker may
  /// wait for more arrivals before dispatching. 0 = never wait: cut the
  /// batch the moment the queue drains.
  double max_wait_us = 0.0;

  /// Admission bound on the central queue (0 = unbounded). Requests
  /// arriving when the queue is full are answered kBusy.
  std::size_t queue_capacity = 256;

  /// Retry-after hint carried in kBusy replies.
  std::uint32_t busy_retry_after_ms = 5;

  /// Ops-plane side port (HTTP /metrics, /metrics.json, /healthz,
  /// /readyz, /statusz, /tracez). < 0 disables the ops plane (default);
  /// 0 binds an ephemeral port; > 0 binds that port. Enabling it also
  /// turns on the tail-sampling flight recorder for the server's
  /// lifetime (restored on stop()).
  int ops_port = -1;

  void validate() const;
};

class EdgeServer {
 public:
  /// Binds immediately (port 0 = ephemeral) and starts serving with the
  /// given options (default: worker pool, batching on demand). The
  /// completion-fn ctors wrap the fn as model id 0 (version 1) in a
  /// fresh registry, so single-model callers are unchanged.
  EdgeServer(std::uint16_t port, CompletionFn complete,
             ServerOptions options = ServerOptions());
  EdgeServer(std::uint16_t port, BatchCompletionFn complete,
             ServerOptions options = ServerOptions());
  /// Multi-model serving: requests route through `registry` by the frame
  /// header's model id (0 is the default model). The registry is shared
  /// so an operator thread can hot-swap models while the server runs.
  EdgeServer(std::uint16_t port, std::shared_ptr<ModelRegistry> registry,
             ServerOptions options = ServerOptions());

  /// Stops the accept loop and joins every worker/connection thread.
  ~EdgeServer();

  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  /// Bound ops-plane port, or 0 when the ops plane is disabled.
  std::uint16_t ops_port() const;
  const ServerOptions& options() const { return opts_; }

  /// LB-facing readiness surfaced at /readyz (and the
  /// edge.server.ready gauge). stop()/request_stop() flip it off; a
  /// controlled drain can flip it off earlier so the replica is ejected
  /// from rotation while in-flight requests finish.
  void set_ready(bool ready);
  bool ready() const { return ready_.load() && !stopping_.load(); }
  std::int64_t requests_served() const { return requests_.value(); }
  std::int64_t connections_accepted() const { return accepted_.value(); }
  std::int64_t rejected_busy() const { return rejected_busy_.value(); }
  std::int64_t rejected_unknown_model() const {
    return rejected_model_.value();
  }
  std::int64_t batches_dispatched() const { return batches_.value(); }
  /// The registry requests route through; hot-swap by installing into it.
  const std::shared_ptr<ModelRegistry>& registry() const { return registry_; }
  /// Total queued requests across every model queue.
  std::int64_t queue_depth() const LCRS_EXCLUDES(queue_mutex_);
  /// This server's registry: every edge.server.* instrument, and only
  /// here. The ops plane renders it merged with the process registry and
  /// the model registry's, so a scrape describes this server alone.
  const obs::Registry& metrics() const { return metrics_; }

  /// Idempotent; wakes blocked connection/worker threads (even idle ones
  /// mid-recv or mid-wait) and joins them before returning.
  void stop() LCRS_EXCLUDES(stop_mutex_, conns_mutex_, queue_mutex_);

 private:
  struct Connection {
    std::thread thread;
    std::shared_ptr<Socket> sock;  // shared with the thread for shutdown
    std::shared_ptr<std::atomic<bool>> done;
  };

  /// Response rendezvous between a connection thread and the worker that
  /// executes its request's batch. The connection thread blocks on `cv`
  /// until a worker (or the shutdown path) publishes a verdict.
  struct ResponseSlot {
    Mutex mutex{"edge.server.slot"};
    CondVar cv;
    bool ready LCRS_GUARDED_BY(mutex) = false;
    bool ok LCRS_GUARDED_BY(mutex) = false;
    CompleteResponse response LCRS_GUARDED_BY(mutex);
    std::string error LCRS_GUARDED_BY(mutex);
  };

  struct PendingRequest {
    Tensor shared;  // conv1 feature map [1, C, H, W]
    std::uint64_t trace_id = 0;
    /// Snapshot resolved at admission: whatever registry generation was
    /// current then answers this request, even if a swap lands while it
    /// queues (the shared_ptr keeps the old model alive until its batch
    /// finishes -- that is the drain).
    std::shared_ptr<const ServableModel> model;
    Stopwatch queued;  // time-in-queue measurement
    std::shared_ptr<ResponseSlot> slot;
  };

  void accept_loop() LCRS_EXCLUDES(conns_mutex_);
  void serve_connection(Socket& conn)
      LCRS_EXCLUDES(conns_mutex_, queue_mutex_);
  void serve_request_queued(Socket& conn, Tensor shared,
                            std::uint64_t trace_id,
                            std::shared_ptr<const ServableModel> model)
      LCRS_EXCLUDES(queue_mutex_);
  /// Moves finished connections (done flag set) out of connections_ so
  /// the caller can join them *after* releasing conns_mutex_ -- joining
  /// under the lock would stall request_stop() and new accepts for as
  /// long as a dying thread takes to unwind.
  void collect_finished_locked(std::vector<Connection>* out)
      LCRS_REQUIRES(conns_mutex_);
  /// Signals shutdown without joining: closes the listener, shuts down
  /// every live peer socket, flushes the queue (failing flushed slots)
  /// and wakes the workers. Safe from connection threads.
  void request_stop() LCRS_EXCLUDES(conns_mutex_, queue_mutex_);

  /// Worker pool: blocks for work, coalesces a batch, dispatches it.
  void worker_loop() LCRS_EXCLUDES(queue_mutex_);
  /// Pops the next batch from one model's queue (first request plus
  /// same-shaped followers served by the *same snapshot*, up to
  /// max_batch, waiting at most max_wait_us for stragglers). Model
  /// queues are visited round-robin so a hot model cannot starve the
  /// others. Returns an empty vector when the server is stopping and
  /// every queue is drained.
  std::vector<PendingRequest> next_batch() LCRS_EXCLUDES(queue_mutex_);
  void dispatch_batch(std::vector<PendingRequest>* batch);
  static void fulfill(ResponseSlot& slot, bool ok, CompleteResponse response,
                      const std::string& error)
      LCRS_EXCLUDES(slot.mutex);

  /// /statusz payload: build/SIMD/uptime plus the serving configuration
  /// and live counters. Called from the ops-server thread.
  std::string status_json() const LCRS_EXCLUDES(queue_mutex_);

  Listener listener_;
  // Both set in the ctor init list and immutable after: const instead
  // of GUARDED_BY (the shared_ptr itself is never rebound -- the
  // registry's own mutex guards its contents -- and validate() is a
  // const member).
  const std::shared_ptr<ModelRegistry> registry_;
  const ServerOptions opts_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> ready_{true};

  obs::Registry metrics_;  // must precede the instruments bound to it
  obs::Counter& requests_{metrics_.counter(obs::names::kServerRequests)};
  obs::Counter& accepted_{metrics_.counter(obs::names::kServerConnections)};
  obs::Counter& connection_errors_{
      metrics_.counter(obs::names::kServerConnectionErrors)};
  obs::Counter& rejected_busy_{
      metrics_.counter(obs::names::kServerRejectedBusy)};
  obs::Counter& rejected_model_{
      metrics_.counter(obs::names::kServerRejectedModel)};
  obs::Counter& batches_{metrics_.counter(obs::names::kServerBatches)};
  obs::Gauge& active_connections_{
      metrics_.gauge(obs::names::kServerActiveConnections)};
  obs::Gauge& queue_depth_{metrics_.gauge(obs::names::kServerQueueDepth)};
  obs::Histogram& completion_us_{
      metrics_.histogram(obs::names::kServerCompletionUs)};
  obs::Histogram& queue_wait_us_{
      metrics_.histogram(obs::names::kServerQueueWaitUs)};
  obs::Histogram& batch_size_{
      metrics_.histogram(obs::names::kServerBatchSize)};
  obs::Gauge& ready_gauge_{metrics_.gauge(obs::names::kServerReady)};

  // Per-model request queues feeding the shared worker pool. Leaf-like:
  // nothing else is acquired while queue_mutex_ is held (slots are
  // fulfilled after it is released; the registry is consulted before
  // admission, never under it), except by stop()/request_stop() which
  // hold stop_mutex_ first (see the ACQUIRED_BEFORE on stop_mutex_).
  mutable Mutex queue_mutex_{"edge.server.queue"};
  CondVar queue_cv_;
  std::map<std::uint32_t, std::deque<PendingRequest>> queues_
      LCRS_GUARDED_BY(queue_mutex_);
  /// Sum of every queue's size; opts_.queue_capacity bounds this total,
  /// so admission control spans all models.
  std::size_t queued_total_ LCRS_GUARDED_BY(queue_mutex_) = 0;
  /// Round-robin fairness cursor: next_batch starts scanning at the
  /// first model id strictly greater than this.
  std::uint32_t rr_cursor_ LCRS_GUARDED_BY(queue_mutex_) = 0;

  // Guards the live-connection map. Acquired by the acceptor, by
  // connection threads entering request_stop(), and by stop(); never
  // held across a join or a completion call.
  Mutex conns_mutex_{"edge.server.conns"};
  std::vector<Connection> connections_ LCRS_GUARDED_BY(conns_mutex_);
  // Serializes stop() callers. Allowed orders: stop -> conns and
  // stop -> queue (stop() calls request_stop() while holding it); the
  // reverse orders never happen.
  Mutex stop_mutex_ LCRS_ACQUIRED_BEFORE(conns_mutex_, queue_mutex_){
      "edge.server.stop"};
  std::vector<std::thread> workers_;
  std::thread acceptor_;

  bool flight_prev_ = false;  // flight-recorder state restored by stop()
  // Declared last so it is destroyed first: its hooks (readiness,
  // /statusz) read the members above from the ops-server thread.
  std::unique_ptr<obs::OpsServer> ops_;
};

}  // namespace lcrs::edge
