// Multi-model serving registry for the edge server.
//
// The registry maps a protocol-level model id (frame header,
// edge/protocol.h) to an immutable *servable model snapshot*: a prepared
// batch-completion function plus whatever state keeps it valid (for real
// models, the CompositeNetwork the closure is bound to). Snapshots are
// held behind shared_ptr<const ServableModel>:
//
//   - A request resolves its snapshot once, at admission, and carries it
//     through the queue into the batched forward. Whatever version was
//     current at admission answers the request -- a concurrent swap never
//     retargets an in-flight request, so responses are always bit-exact
//     against the version that admitted them.
//   - install() flips the map entry atomically under the registry mutex;
//     the displaced snapshot is not freed but *retired*: in-flight
//     batches still hold strong references, and the registry keeps a
//     weak_ptr so live_models() can report when the drain completes and
//     the old model's memory is actually gone.
//   - Versions are strictly increasing per model id, so observers see a
//     monotonic version history (never an ABA rollback).
//
// Lock discipline: mutex_ ("edge.registry") is a leaf. lookup()/install()
// copy or move shared_ptrs under it and never invoke completions, load
// weights, or touch any other lock while holding it; weight loading and
// prepare_edge_inference() happen before install() is called (off the
// serving path -- that is what makes the swap "hot").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/sync.h"
#include "core/checkpoint.h"
#include "edge/protocol.h"

namespace lcrs::edge {

/// Completes a conv1 feature map into (label, probabilities). Invoked
/// concurrently from the server's worker threads.
using CompletionFn = std::function<CompleteResponse(const Tensor& shared)>;

/// Batched completion: a [k, C, H, W] stack of conv1 feature maps from k
/// requests (possibly from k different connections) in, exactly k
/// responses out, row i answering request i. Must be row-independent:
/// response i may not depend on the other rows.
using BatchCompletionFn =
    std::function<std::vector<CompleteResponse>(const Tensor& batch)>;

/// One immutable, fully-prepared model generation. Everything is set
/// before the snapshot is installed and never mutated afterwards, so
/// worker threads may call `complete` concurrently with no locking.
struct ServableModel {
  std::uint32_t model_id = 0;  // 0 = the server's default model
  std::uint32_t version = 0;
  std::string name;
  BatchCompletionFn complete;
  /// Keeps the network the completion closure is bound to alive for the
  /// snapshot's lifetime; null for synthetic/test completions.
  std::shared_ptr<core::CompositeNetwork> net;

  /// Wraps a loaded bundle into a servable snapshot: takes ownership of
  /// the network, runs prepare_edge_inference() (via
  /// main_branch_batch_completion), and binds the batched completion to
  /// it.
  static std::shared_ptr<const ServableModel> from_loaded(
      const core::BundleInfo& info, core::LoadedComposite loaded);

  /// Snapshot around an arbitrary completion fn (tests, default model).
  static std::shared_ptr<const ServableModel> from_fn(
      std::uint32_t model_id, std::uint32_t version, std::string name,
      BatchCompletionFn complete);
};

/// Thread-safe model-id -> snapshot map with strictly-increasing
/// versions, retirement tracking, and its own instruments.
class ModelRegistry {
 public:
  /// Installs `model` under model->model_id, displacing any incumbent.
  /// Throws InvalidArgument unless model->version is strictly greater
  /// than the incumbent's (monotonic version visibility) and the
  /// snapshot has a completion fn.
  void install(std::shared_ptr<const ServableModel> model)
      LCRS_EXCLUDES(mutex_);

  /// Current snapshot for `model_id`, or null when unregistered. The
  /// returned reference keeps the snapshot alive across a concurrent
  /// swap or eviction.
  std::shared_ptr<const ServableModel> lookup(std::uint32_t model_id) const
      LCRS_EXCLUDES(mutex_);

  /// Removes the entry; returns false when there was none. The snapshot
  /// drains like a swapped-out one.
  bool evict(std::uint32_t model_id) LCRS_EXCLUDES(mutex_);

  /// Snapshot of every registered model, id-ordered.
  std::vector<std::shared_ptr<const ServableModel>> list() const
      LCRS_EXCLUDES(mutex_);

  /// Number of registered entries.
  std::int64_t size() const LCRS_EXCLUDES(mutex_);

  /// Registered entries plus retired snapshots whose memory is still
  /// pinned by in-flight holders -- the drain gauge. Prunes expired
  /// retirees as a side effect; equals size() once every displaced
  /// model's last batch has finished.
  std::int64_t live_models() LCRS_EXCLUDES(mutex_);

  /// This registry's metrics: every edge.registry.* instrument, and only
  /// here (a serving EdgeServer's ops plane renders them).
  const obs::Registry& metrics() const { return metrics_; }

 private:
  mutable Mutex mutex_{"edge.registry"};
  std::map<std::uint32_t, std::shared_ptr<const ServableModel>> models_
      LCRS_GUARDED_BY(mutex_);
  /// Displaced/evicted snapshots, observed weakly: an entry expires
  /// exactly when the last in-flight batch drops its reference.
  std::vector<std::weak_ptr<const ServableModel>> retired_
      LCRS_GUARDED_BY(mutex_);

  obs::Registry metrics_;  // must precede the instruments bound to it
  obs::Gauge& models_gauge_{metrics_.gauge(obs::names::kRegistryModels)};
  obs::Gauge& live_gauge_{metrics_.gauge(obs::names::kRegistryModelsLive)};
  obs::Counter& swaps_{metrics_.counter(obs::names::kRegistrySwaps)};
  obs::Counter& evictions_{metrics_.counter(obs::names::kRegistryEvictions)};
};

}  // namespace lcrs::edge
