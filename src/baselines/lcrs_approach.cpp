#include "baselines/lcrs_approach.h"

#include "webinfer/export.h"

namespace lcrs::baselines {

LcrsModel lcrs_model_of(core::CompositeNetwork& net, const Shape& sample_shape,
                        double exit_fraction) {
  LCRS_CHECK(sample_shape.rank() == 3, "sample_shape must be [C, H, W]");
  const Shape shared_shape{net.shared_out_c(), net.shared_out_h(),
                           net.shared_out_w()};
  LcrsModel m;
  m.shared = models::profile_layers(net.shared_stage(), sample_shape);
  m.branch = models::profile_layers(net.binary_branch(), shared_shape);
  m.rest = models::profile_layers(net.main_rest(), shared_shape);
  m.upload_bytes = upload_frame_bytes(shared_shape);
  m.browser_model_bytes = static_cast<std::int64_t>(
      webinfer::serialize(webinfer::export_browser_model(
                              net, sample_shape[0], sample_shape[1],
                              sample_shape[2]))
          .size());
  m.exit_fraction = exit_fraction;
  return m;
}

ApproachCost evaluate_lcrs(const LcrsModel& model, const sim::CostModel& cost,
                           const sim::Scenario& scenario) {
  LCRS_CHECK(model.exit_fraction >= 0.0 && model.exit_fraction <= 1.0,
             "exit_fraction must be a probability");
  const double miss = 1.0 - model.exit_fraction;
  const LcrsPathCosts p = lcrs_path_costs(model, cost, scenario);

  ApproachCost c;
  c.name = "LCRS";
  c.browser_model_bytes = model.browser_model_bytes;
  c.comm_ms = p.load_ms + miss * (p.upload_ms + p.download_ms);
  c.compute_ms = p.browser_ms + miss * p.edge_ms;
  c.total_ms = c.comm_ms + c.compute_ms;
  c.device_energy_mj = cost.energy().compute_mj(p.browser_ms) +
                       cost.energy().tx_mj(miss * p.upload_ms) +
                       cost.energy().rx_mj(p.load_ms + miss * p.download_ms);
  record_approach_cost(c);
  return c;
}

LcrsPathCosts lcrs_path_costs(const LcrsModel& model,
                              const sim::CostModel& cost,
                              const sim::Scenario& scenario) {
  LcrsPathCosts p;
  p.load_ms = cost.network().download_ms(model.browser_model_bytes) /
              static_cast<double>(scenario.session_samples);
  p.browser_ms =
      cost.browser_compute_ms(model.shared, 0, model.shared.size()) +
      cost.browser_compute_ms(model.branch, 0, model.branch.size());
  p.upload_ms = cost.network().upload_ms(model.upload_bytes);
  p.edge_ms = cost.edge_compute_ms(model.rest, 0, model.rest.size());
  p.download_ms = cost.network().download_ms(scenario.result_bytes);
  p.exit_binary_ms = p.load_ms + p.browser_ms;
  // Summed in SimStep::total_ms()'s order, so a zero-jitter LocalRuntime
  // step reproduces this total exactly.
  p.exit_main_ms =
      p.load_ms + (p.browser_ms + p.upload_ms + p.edge_ms + p.download_ms);
  return p;
}

}  // namespace lcrs::baselines
