#include "baselines/local_runtime.h"

namespace lcrs::baselines {

LocalRuntime::LocalRuntime(core::CompositeNetwork& net,
                           core::ExitPolicy policy, sim::CostModel cost,
                           const Shape& sample_shape, sim::Scenario scenario)
    : net_(net),
      policy_(policy),
      cost_(std::move(cost)),
      scenario_(scenario),
      // The exit fraction is the per-sample decision here, not a model
      // input, so the path costs do not read it.
      model_(lcrs_model_of(net, sample_shape, /*exit_fraction=*/0.0)),
      paths_(lcrs_path_costs(model_, cost_, scenario_)) {}

SimStep LocalRuntime::classify(const Tensor& sample, Rng& rng) {
  const core::InferenceResult r =
      core::collaborative_infer(net_, policy_, sample);

  SimStep step;
  step.label = r.predicted;
  step.exit_point = r.exit_point;
  step.entropy = r.entropy;
  step.browser_ms = paths_.browser_ms;
  if (r.exit_point == core::ExitPoint::kMainBranch) {
    step.upload_ms =
        cost_.network().upload_ms_jittered(model_.upload_bytes, rng);
    step.edge_ms = paths_.edge_ms;
    step.download_ms =
        cost_.network().download_ms_jittered(scenario_.result_bytes, rng);
  }
  return step;
}

}  // namespace lcrs::baselines
