// End-to-end cost model combining devices + link.
//
// Prices layer-profile lists (models/accounting.h) on a device and tensor
// transfers on the link. All Table II / Table III / Fig. 6 / Fig. 10
// numbers are produced through this one class so every approach is priced
// under identical assumptions.
#pragma once

#include <vector>

#include "models/accounting.h"
#include "sim/device_model.h"
#include "sim/energy_model.h"
#include "sim/network_model.h"

namespace lcrs::sim {

/// Scenario constants shared by every approach in one experiment.
struct Scenario {
  // One Web-AR page session: the model is fetched once and then serves
  // this many recognitions. 20 reproduces the paper's Table II/III
  // magnitudes almost exactly (their comm numbers equal model_MB / 10 --
  // i.e. loading is charged nearly per-recognition; see EXPERIMENTS.md).
  std::int64_t session_samples = 20;
  std::int64_t camera_frame_bytes = 300 * 1024;  // raw Web-AR camera frame
                                                 // uploaded by edge-only
  std::int64_t result_bytes = 256;     // label + probabilities reply
};

class CostModel {
 public:
  CostModel(DeviceSpec browser, DeviceSpec edge, LinkSpec link)
      : browser_(std::move(browser)), edge_(std::move(edge)), net_(link) {}

  /// The paper's default environment: Mate 9 browser + X3640M4 edge + 4G.
  static CostModel paper_default();

  /// Compute time of a profile slice [begin, end) on the given device,
  /// pricing binary layers through the XNOR path.
  double compute_ms(const std::vector<models::LayerProfile>& layers,
                    std::size_t begin, std::size_t end,
                    const DeviceModel& device) const;

  double browser_compute_ms(const std::vector<models::LayerProfile>& layers,
                            std::size_t begin, std::size_t end) const {
    return compute_ms(layers, begin, end, browser_);
  }
  double edge_compute_ms(const std::vector<models::LayerProfile>& layers,
                         std::size_t begin, std::size_t end) const {
    return compute_ms(layers, begin, end, edge_);
  }

  const DeviceModel& browser() const { return browser_; }
  const DeviceModel& edge() const { return edge_; }
  const NetworkModel& network() const { return net_; }
  const EnergyModel& energy() const { return energy_; }

 private:
  DeviceModel browser_;
  DeviceModel edge_;
  NetworkModel net_;
  EnergyModel energy_;
};

}  // namespace lcrs::sim
