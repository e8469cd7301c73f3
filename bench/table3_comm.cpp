// Reproduces Table III: average communication cost (ms) per recognition
// -- model loading (amortized over the page session) plus the transfer of
// intermediate results or the initial task -- for the same approaches and
// networks as Table II.
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

  std::printf("Table III: average communication cost on the mobile web "
              "browser (ms)\n\n");
  std::printf("%-10s %10s %14s %10s %13s %11s\n", "-", "LCRS", "Neurosurgeon",
              "Edgent", "Mobile-only", "(Edge-only)");
  bench::print_rule(74);

  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    const baselines::ModelUnderTest model = bench::full_width_model(arch);

    const baselines::LcrsModel lm =
        bench::full_width_lcrs_model(arch, bench::paper_exit_fraction(arch));

    std::printf("%-10s %10.0f %14.0f %10.0f %13.0f %11.0f\n",
                model.name.c_str(),
                baselines::evaluate_lcrs(lm, cost, scenario).comm_ms,
                baselines::evaluate_neurosurgeon(model, cost, scenario)
                    .comm_ms,
                baselines::evaluate_edgent(model, cost, scenario).comm_ms,
                baselines::evaluate_mobile_only(model, cost, scenario)
                    .comm_ms,
                baselines::evaluate_edge_only(model, cost, scenario).comm_ms);
  }

  bench::print_rule(74);
  std::printf("\nPaper reference (ms): LCRS 19/340/188/234; Neurosurgeon "
              "72/512/297/365;\nEdgent 56/492/287/324; Mobile-only "
              "170/9104/4406/5832 (LeNet/AlexNet/ResNet18/VGG16).\n");
  std::printf("Note: our Neurosurgeon re-optimizes its partition per cost "
              "model, so its VGG16\ncomm can undercut LCRS; the paper pinned "
              "Neurosurgeon to literature partition\npoints. See "
              "EXPERIMENTS.md.\n");
  return 0;
}
