#include "baselines/neurosurgeon.h"

namespace lcrs::baselines {

NeurosurgeonDecision neurosurgeon_partition(const ModelUnderTest& model,
                                            const sim::CostModel& cost,
                                            const sim::Scenario& scenario,
                                            const sim::DeviceModel& native) {
  const std::size_t n_layers = model.layers.size();
  LCRS_CHECK(n_layers >= 1, "cannot partition an empty model");

  NeurosurgeonDecision best;
  double best_ms = -1.0;
  for (std::size_t cut = 0; cut <= n_layers; ++cut) {
    const double device_ms = cost.compute_ms(model.layers, 0, cut, native);
    const double edge_ms = cost.edge_compute_ms(model.layers, cut, n_layers);
    double comm_ms = 0.0;
    if (cut < n_layers) {
      comm_ms = cost.network().upload_ms(
                    model.upload_bytes(cut, scenario)) +
                cost.network().download_ms(scenario.result_bytes);
    }
    const double total = device_ms + edge_ms + comm_ms;
    if (best_ms < 0.0 || total < best_ms) {
      best_ms = total;
      best.cut = cut;
      best.predicted_native_ms = total;
    }
  }
  return best;
}

ApproachCost evaluate_neurosurgeon(const ModelUnderTest& model,
                                   const sim::CostModel& cost,
                                   const sim::Scenario& scenario) {
  const sim::DeviceModel native{sim::mobile_native()};
  const NeurosurgeonDecision d =
      neurosurgeon_partition(model, cost, scenario, native);
  const std::size_t n_layers = model.layers.size();
  const double n = static_cast<double>(scenario.session_samples);

  ApproachCost c;
  c.name = "Neurosurgeon";
  c.browser_model_bytes = model.prefix_model_bytes(d.cut);
  // Web reality: the browser-side slice is fetched at page load.
  const double load = cost.network().download_ms(c.browser_model_bytes) / n;
  double up = 0.0, down = 0.0;
  if (d.cut < n_layers) {
    up = cost.network().upload_ms(model.upload_bytes(d.cut, scenario));
    down = cost.network().download_ms(scenario.result_bytes);
  }
  c.comm_ms = load + up + down;
  const double device_ms = cost.browser_compute_ms(model.layers, 0, d.cut);
  c.compute_ms =
      device_ms + cost.edge_compute_ms(model.layers, d.cut, n_layers);
  c.total_ms = c.comm_ms + c.compute_ms;
  c.device_energy_mj = cost.energy().compute_mj(device_ms) +
                       cost.energy().tx_mj(up) +
                       cost.energy().rx_mj(load + down);
  return c;
}

}  // namespace lcrs::baselines
