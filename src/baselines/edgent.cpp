#include "baselines/edgent.h"

#include <cmath>

namespace lcrs::baselines {

namespace {

/// Native-profile latency of running [0,cut) on device, [cut,exit) at the
/// edge, exiting through the side classifier after `exit`. When
/// exit <= cut everything (including the exit) stays on device and no
/// upload happens.
double native_latency(const ModelUnderTest& model, const sim::CostModel& cost,
                      const sim::Scenario& scenario,
                      const sim::DeviceModel& native,
                      const EdgentConfig& config, std::size_t cut,
                      std::size_t exit) {
  double ms = 0.0;
  if (exit <= cut) {
    ms += cost.compute_ms(model.layers, 0, exit, native);
    ms += native.compute_ms(config.branch_flops);
    return ms;
  }
  ms += cost.compute_ms(model.layers, 0, cut, native);
  ms += cost.network().upload_ms(model.upload_bytes(cut, scenario));
  ms += cost.edge_compute_ms(model.layers, cut, exit);
  ms += cost.edge().compute_ms(config.branch_flops);
  ms += cost.network().download_ms(scenario.result_bytes);
  return ms;
}

}  // namespace

EdgentDecision edgent_search(const ModelUnderTest& model,
                             const sim::CostModel& cost,
                             const sim::Scenario& scenario,
                             const sim::DeviceModel& native,
                             const EdgentConfig& config) {
  const std::size_t n_layers = model.layers.size();
  LCRS_CHECK(n_layers >= 1, "cannot search an empty model");
  const std::size_t min_exit = static_cast<std::size_t>(
      std::ceil(config.min_depth_fraction * static_cast<double>(n_layers)));

  // Edgent trades accuracy for latency: the exit depth only needs to
  // clear the accuracy proxy (min_depth_fraction of the layers), and
  // among qualifying (cut, exit) pairs the fastest one wins. Configs over
  // the latency budget are considered only when nothing qualifies.
  EdgentDecision best;
  double best_ms = -1.0;
  bool best_feasible = false;
  for (std::size_t exit = std::max<std::size_t>(min_exit, 1);
       exit <= n_layers; ++exit) {
    // cut < exit: Edgent is a device-edge co-inference scheme -- the
    // device always uploads at the partition and the edge carries the
    // model to the exit point.
    for (std::size_t cut = 0; cut < exit; ++cut) {
      const double ms = native_latency(model, cost, scenario, native, config,
                                       cut, exit);
      const bool feasible = ms <= config.latency_budget_ms;
      const bool better =
          best_ms < 0.0 || (feasible && !best_feasible) ||
          (feasible == best_feasible && ms < best_ms);
      if (better) {
        best_ms = ms;
        best_feasible = feasible;
        best.cut = cut;
        best.exit = exit;
        best.predicted_native_ms = ms;
      }
    }
  }
  return best;
}

ApproachCost evaluate_edgent(const ModelUnderTest& model,
                             const sim::CostModel& cost,
                             const sim::Scenario& scenario,
                             const EdgentConfig& config) {
  const sim::DeviceModel native{sim::mobile_native()};
  const EdgentDecision d =
      edgent_search(model, cost, scenario, native, config);
  const double n = static_cast<double>(scenario.session_samples);

  ApproachCost c;
  c.name = "Edgent";
  c.browser_model_bytes =
      model.prefix_model_bytes(d.cut) + config.branch_param_bytes;
  const double load = cost.network().download_ms(c.browser_model_bytes) / n;
  double up = 0.0, down = 0.0;
  double device_ms = cost.browser_compute_ms(model.layers, 0, d.cut);
  c.compute_ms = device_ms;
  if (d.exit <= d.cut) {
    // Exits on the device side; the branch classifier runs in the browser.
    const double branch_ms = cost.browser().compute_ms(config.branch_flops);
    device_ms += branch_ms;
    c.compute_ms += branch_ms;
  } else {
    up = cost.network().upload_ms(model.upload_bytes(d.cut, scenario));
    down = cost.network().download_ms(scenario.result_bytes);
    c.compute_ms += cost.edge_compute_ms(model.layers, d.cut, d.exit) +
                    cost.edge().compute_ms(config.branch_flops);
  }
  c.comm_ms = load + up + down;
  c.total_ms = c.comm_ms + c.compute_ms;
  c.device_energy_mj = cost.energy().compute_mj(device_ms) +
                       cost.energy().tx_mj(up) +
                       cost.energy().rx_mj(load + down);
  return c;
}

}  // namespace lcrs::baselines
