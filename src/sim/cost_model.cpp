#include "sim/cost_model.h"

namespace lcrs::sim {

CostModel CostModel::paper_default() {
  return CostModel(mobile_web_browser(), edge_server(), lte_4g());
}

double CostModel::compute_ms(const std::vector<models::LayerProfile>& layers,
                             std::size_t begin, std::size_t end,
                             const DeviceModel& device) const {
  LCRS_CHECK(begin <= end && end <= layers.size(),
             "compute_ms slice out of range");
  double ms = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    ms += layers[i].is_binary ? device.compute_binary_ms(layers[i].flops)
                              : device.compute_ms(layers[i].flops);
  }
  return ms;
}

}  // namespace lcrs::sim
