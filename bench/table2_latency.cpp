// Reproduces Table II: average end-to-end latency (ms) of LCRS vs
// Neurosurgeon, Edgent and Mobile-only on the mobile web browser, for the
// four networks on the CIFAR10-shaped workload over the paper's 4G link.
//
// All approaches are priced by the shared cost model on full-width model
// profiles. LCRS exit fractions use the Table I values the paper reports
// for CIFAR10 (79/73/78% for AlexNet/ResNet18/VGG16, 84% LeNet); run
// bench/table1_training to re-measure them on the synthetic substrate.
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

  std::printf("Table II: average end-to-end latency on the mobile web "
              "browser (ms)\n");
  std::printf("4G link %.0f/%.0f Mb/s, session of %lld recognitions\n\n",
              cost.network().spec().downlink_mbps,
              cost.network().spec().uplink_mbps,
              static_cast<long long>(scenario.session_samples));
  std::printf("%-10s %10s %14s %10s %13s %11s\n", "-", "LCRS", "Neurosurgeon",
              "Edgent", "Mobile-only", "(Edge-only)");
  bench::print_rule(74);

  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    const baselines::ModelUnderTest model = bench::full_width_model(arch);

    const baselines::LcrsModel lm =
        bench::full_width_lcrs_model(arch, bench::paper_exit_fraction(arch));
    const double lcrs =
        baselines::evaluate_lcrs(lm, cost, scenario).total_ms;
    const double neuro =
        baselines::evaluate_neurosurgeon(model, cost, scenario).total_ms;
    const double edgent =
        baselines::evaluate_edgent(model, cost, scenario).total_ms;
    const double mobile =
        baselines::evaluate_mobile_only(model, cost, scenario).total_ms;
    const double edge =
        baselines::evaluate_edge_only(model, cost, scenario).total_ms;
    std::printf("%-10s %10.0f %14.0f %10.0f %13.0f %11.0f\n",
                model.name.c_str(), lcrs, neuro, edgent, mobile, edge);
  }

  bench::print_rule(74);
  std::printf("\nPaper reference (ms): LCRS 37/153/261/264; Neurosurgeon "
              "110/5256/2820/3421;\nEdgent 204/4617/2613/3231; Mobile-only "
              "109/9313/5882/8205 (LeNet/AlexNet/ResNet18/VGG16).\n");
  return 0;
}
