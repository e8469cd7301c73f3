// Browser-side client: webinfer engine + entropy exit + TCP fallback.
//
// This is the deployed form of Algorithm 2: the "browser" (webinfer
// engine) runs conv1 + binary branch; on an entropy miss it uploads the
// conv1 features to the edge server and returns the server's answer.
//
// The edge path is hardened: every attempt is bounded by a deadline,
// transport failures are retried with capped exponential backoff over a
// fresh connection, and when the edge stays unreachable the client
// degrades gracefully -- it answers with the binary branch's prediction
// (ExitPoint::kBinaryBranchFallback) instead of throwing, which is the
// availability story the binary branch buys us over partition-only
// baselines like Neurosurgeon/Edgent.
//
// Observability: every classify() mints a 64-bit trace id, wraps each
// stage (conv1, binary branch, serialize, network wait) in an obs::Span
// tagged with it, and sends the id in the frame header so the server's
// spans stitch into the same timeline. Counters/latencies are
// recorded once, into this client's own obs::Registry (metrics()); the
// exit decisions also feed the process-wide core.exit.* counters.
#pragma once

#include <optional>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "edge/tcp.h"
#include "webinfer/engine.h"

namespace lcrs::edge {

/// One classification outcome on the browser side.
struct ClientResult {
  std::int64_t label = -1;
  core::ExitPoint exit_point = core::ExitPoint::kBinaryBranch;
  double entropy = 0.0;
  Tensor probabilities;
  /// The trace id the stages of this request were tagged with.
  std::uint64_t trace_id = 0;
};

/// How the client behaves when the edge path fails.
struct RetryPolicy {
  int max_attempts = 3;            // total tries per classify (>= 1)
  double initial_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 250.0;
  double deadline_ms = 0.0;        // whole-edge-path budget; 0 = unbounded
  bool fallback_to_binary = true;  // degrade instead of throwing

  void validate() const;

  /// Fail fast: one attempt, no backoff, immediate fallback.
  static RetryPolicy no_retry();
};

class BrowserClient {
 public:
  /// `port` is the edge server's loopback port; the connection is opened
  /// lazily on the first entropy miss and kept alive afterwards.
  BrowserClient(webinfer::Engine engine, core::ExitPolicy policy,
                std::uint16_t port, RetryPolicy retry = RetryPolicy());

  /// Runs Algorithm 2 on a single [1, C, H, W] sample. Never throws for
  /// transport faults when the policy allows fallback: the worst case is a
  /// binary-branch answer tagged kBinaryBranchFallback.
  ClientResult classify(const Tensor& sample);

  /// Fraction of classified samples that exited at the binary branch
  /// because they were confident (fallbacks are counted separately).
  double exit_fraction() const;

  std::int64_t classified() const { return requests_.value(); }
  std::int64_t fallbacks() const { return exit_fallback_.value(); }
  /// This client's registry: every client.* instrument, and only here.
  const obs::Registry& metrics() const { return metrics_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Which edge-side model completes this client's requests, carried in
  /// the frame header. 0 (the default) targets the server's default
  /// model.
  void set_model_id(std::uint32_t model_id) { model_id_ = model_id; }
  std::uint32_t model_id() const { return model_id_; }

 private:
  ClientResult complete_at_edge(const Tensor& shared, const Tensor& probs,
                                double entropy, std::uint64_t trace_id);
  ClientResult attempt_edge_completion(const Frame& request, double entropy,
                                       const Deadline& deadline);

  webinfer::Engine engine_;
  core::ExitPolicy policy_;
  std::uint16_t port_;
  RetryPolicy retry_;
  std::uint32_t model_id_ = 0;
  std::optional<Socket> conn_;
  bool connected_once_ = false;

  obs::Registry metrics_;  // must precede the instruments bound to it
  obs::Counter& requests_{metrics_.counter(obs::names::kClientRequests)};
  obs::Counter& exit_binary_{metrics_.counter(obs::names::kClientExitBinary)};
  obs::Counter& exit_main_{metrics_.counter(obs::names::kClientExitMain)};
  obs::Counter& exit_fallback_{
      metrics_.counter(obs::names::kClientExitFallback)};
  obs::Counter& retries_{metrics_.counter(obs::names::kClientRetries)};
  obs::Counter& reconnects_{metrics_.counter(obs::names::kClientReconnects)};
  obs::Counter& busy_rejections_{
      metrics_.counter(obs::names::kClientBusyRejections)};
  obs::Counter& model_unavailable_{
      metrics_.counter(obs::names::kClientModelUnavailable)};
  obs::Histogram& roundtrip_us_{
      metrics_.histogram(obs::names::kClientEdgeRoundtripUs)};
  obs::Histogram& browser_compute_us_{
      metrics_.histogram(obs::names::kClientBrowserComputeUs)};
  obs::Histogram& serialize_us_{
      metrics_.histogram(obs::names::kClientSerializeUs)};
};

}  // namespace lcrs::edge
