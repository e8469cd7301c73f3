// Reproduces Figure 7: bytes each approach ships to the mobile web
// browser for the CIFAR10 networks -- the reason partition-offloading
// approaches stall at web page load while LCRS stays lightweight.
#include <cstdio>

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

  std::printf("Figure 7: model size on the mobile web browser (MB, "
              "CIFAR10)\n\n");
  std::printf("%-10s %10s %14s %10s %13s\n", "-", "LCRS", "Neurosurgeon",
              "Edgent", "Mobile-only");
  bench::print_rule(62);

  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    const baselines::ModelUnderTest model = bench::full_width_model(arch);

    const baselines::LcrsModel lm =
        bench::full_width_lcrs_model(arch, bench::paper_exit_fraction(arch));

    const auto mb = [](std::int64_t bytes) {
      return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    std::printf(
        "%-10s %10.3f %14.3f %10.3f %13.3f\n", model.name.c_str(),
        mb(lm.browser_model_bytes),
        mb(baselines::evaluate_neurosurgeon(model, cost, scenario)
               .browser_model_bytes),
        mb(baselines::evaluate_edgent(model, cost, scenario)
               .browser_model_bytes),
        mb(baselines::evaluate_mobile_only(model, cost, scenario)
               .browser_model_bytes));
  }

  bench::print_rule(62);
  std::printf("\nPaper reference: LCRS's browser payload is the binary "
              "branch (0.1-3.5 MB);\nfull-precision approaches ship tens of "
              "MB for the deep networks.\n");
  return 0;
}
