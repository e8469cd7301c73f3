// Ablation: mobile-device energy per recognition (mJ) across approaches.
// The paper motivates LCRS by the "computation and energy consumption"
// pressure on the mobile web browser; this bench quantifies it under the
// calibrated device/radio energy model.
#include <cstdio>

#include "baselines/edge_only.h"
#include "baselines/edgent.h"
#include "baselines/lcrs_approach.h"
#include "baselines/mobile_only.h"
#include "baselines/neurosurgeon.h"
#include "bench_util.h"
#include "common/logging.h"

using namespace lcrs;

int main() {
  set_log_level(LogLevel::kWarn);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;

  std::printf("Ablation: mobile-device energy per recognition (mJ, "
              "CIFAR10 networks)\n");
  std::printf("device model: compute %.1f W, TX %.1f W, RX %.1f W\n\n",
              cost.energy().spec().compute_watts,
              cost.energy().spec().tx_watts, cost.energy().spec().rx_watts);
  std::printf("%-10s %10s %14s %10s %13s %11s\n", "-", "LCRS", "Neurosurgeon",
              "Edgent", "Mobile-only", "Edge-only");
  bench::print_rule(74);

  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    const baselines::ModelUnderTest model = bench::full_width_model(arch);

    const baselines::LcrsModel lm = bench::full_width_lcrs_model(arch, 0.78);

    std::printf(
        "%-10s %10.0f %14.0f %10.0f %13.0f %11.0f\n", model.name.c_str(),
        baselines::evaluate_lcrs(lm, cost, scenario).device_energy_mj,
        baselines::evaluate_neurosurgeon(model, cost, scenario)
            .device_energy_mj,
        baselines::evaluate_edgent(model, cost, scenario).device_energy_mj,
        baselines::evaluate_mobile_only(model, cost, scenario)
            .device_energy_mj,
        baselines::evaluate_edge_only(model, cost, scenario)
            .device_energy_mj);
  }

  bench::print_rule(74);
  std::printf("\nExpected shape: LCRS's short binary forward and rare "
              "uploads give the lowest\ndevice energy on deep networks; "
              "mobile-only burns the battery on compute.\n");
  return 0;
}
