// Common types for the compared execution approaches (paper Tables II/III).
//
// Every approach is priced by the same CostModel under the same Scenario:
// a Web-AR session of `session_samples` recognitions, so one-time model
// loading amortizes across the session exactly as the paper's "average
// latency of 100 random samples" does.
#pragma once

#include <string>
#include <vector>

#include "sim/cost_model.h"

namespace lcrs::baselines {

/// Per-sample average costs of one approach on one model.
struct ApproachCost {
  std::string name;
  double total_ms = 0.0;    // end-to-end average per sample
  double comm_ms = 0.0;     // communication average per sample, including
                            // the amortized model download
  double compute_ms = 0.0;  // compute average per sample
  std::int64_t browser_model_bytes = 0;  // bytes shipped to the browser
  double device_energy_mj = 0.0;  // mobile-device energy per sample
                                  // (compute + radio; edge energy is the
                                  // provider's cost, not the device's)
};

/// Publishes an approach's headline costs as gauges in the global
/// metrics registry ("baseline.<slug>.total_ms" etc.), so a comparison
/// sweep's latest numbers show up in the same snapshot as the runtime
/// metrics.
void record_approach_cost(const ApproachCost& cost);

/// Encoded size of the kCompleteRequest frame (edge/protocol.h) that
/// uploads one sample's activation of per-sample shape `sample_shape`,
/// sent as a batch-1 tensor.
std::int64_t upload_frame_bytes(const Shape& sample_shape);

/// A full-precision model prepared for partition-based approaches.
struct ModelUnderTest {
  std::string name;
  std::vector<models::LayerProfile> layers;  // monolithic profile

  /// Serialized bytes of the browser-side slice [0, cut).
  std::int64_t prefix_model_bytes(std::size_t cut) const;
  std::int64_t total_model_bytes() const {
    return prefix_model_bytes(layers.size());
  }

  /// Upload bytes when the browser stops at `cut` < layers.size(): the
  /// raw camera frame for cut 0 (the task itself), otherwise the request
  /// frame carrying layer cut-1's activation.
  std::int64_t upload_bytes(std::size_t cut,
                            const sim::Scenario& scenario) const;
};

}  // namespace lcrs::baselines
