#include "baselines/approach.h"

#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "edge/protocol.h"

namespace lcrs::baselines {

std::int64_t upload_frame_bytes(const Shape& sample_shape) {
  std::vector<std::int64_t> dims{1};
  for (const auto d : sample_shape.dims()) dims.push_back(d);
  const edge::Frame frame{edge::MsgType::kCompleteRequest,
                          edge::make_complete_request(Tensor{Shape(dims)})};
  return static_cast<std::int64_t>(edge::encode_frame(frame).size());
}

std::int64_t ModelUnderTest::prefix_model_bytes(std::size_t cut) const {
  LCRS_CHECK(cut <= layers.size(), "prefix cut out of range");
  std::int64_t bytes = 8;  // file header
  for (std::size_t i = 0; i < cut; ++i) bytes += layers[i].param_bytes;
  return bytes;
}

std::int64_t ModelUnderTest::upload_bytes(
    std::size_t cut, const sim::Scenario& scenario) const {
  LCRS_CHECK(cut < layers.size(), "upload cut out of range");
  if (cut == 0) return scenario.camera_frame_bytes;
  return upload_frame_bytes(layers[cut - 1].output_shape);
}

void record_approach_cost(const ApproachCost& cost) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge(obs::names::baseline_gauge(cost.name, "total_ms"))
      .set(cost.total_ms);
  reg.gauge(obs::names::baseline_gauge(cost.name, "comm_ms"))
      .set(cost.comm_ms);
  reg.gauge(obs::names::baseline_gauge(cost.name, "compute_ms"))
      .set(cost.compute_ms);
}

}  // namespace lcrs::baselines
