// In-process collaborative runtime with a simulated clock.
//
// Runs *real* inference through the composite network (Algorithm 2's
// exit decision per sample) and prices each stage through the same
// lcrs_model_of / lcrs_path_costs path as Tables II/III, so Fig. 6 /
// Fig. 10 latency series come from genuine per-sample exit decisions plus
// the calibrated device/link timings. The only pricing of its own is the
// per-sample link jitter on the upload and the reply.
#pragma once

#include "baselines/lcrs_approach.h"
#include "core/inference.h"

namespace lcrs::baselines {

/// Timeline of one recognition.
struct SimStep {
  std::int64_t label = -1;
  core::ExitPoint exit_point = core::ExitPoint::kBinaryBranch;
  double entropy = 0.0;
  double browser_ms = 0.0;
  double upload_ms = 0.0;
  double edge_ms = 0.0;
  double download_ms = 0.0;

  double total_ms() const {
    return browser_ms + upload_ms + edge_ms + download_ms;
  }
};

class LocalRuntime {
 public:
  /// Prices the network once at construction (lcrs_model_of). The
  /// sample_shape is the per-sample input geometry [C, H, W].
  LocalRuntime(core::CompositeNetwork& net, core::ExitPolicy policy,
               sim::CostModel cost, const Shape& sample_shape,
               sim::Scenario scenario = {});

  /// One Algorithm 2 recognition with a jittered link draw.
  SimStep classify(const Tensor& sample, Rng& rng);

  /// Amortized model-load cost per sample for this runtime's session.
  double amortized_load_ms() const { return paths_.load_ms; }

  std::int64_t browser_model_bytes() const {
    return model_.browser_model_bytes;
  }

 private:
  core::CompositeNetwork& net_;
  core::ExitPolicy policy_;
  sim::CostModel cost_;
  sim::Scenario scenario_;
  LcrsModel model_;
  LcrsPathCosts paths_;
};

}  // namespace lcrs::baselines
