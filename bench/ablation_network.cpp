// Ablation: LCRS vs baselines across network conditions (paper Sec. VI
// "more simulation in different system environments"). Repeats the Table
// II evaluation over congested 4G, nominal 4G, and WiFi links.
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
  std::printf("Ablation: end-to-end latency (ms) across link conditions "
              "(ResNet18, CIFAR10)\n\n");

  const baselines::ModelUnderTest model =
      bench::full_width_model(models::Arch::kResNet18);

  const baselines::LcrsModel lm = bench::full_width_lcrs_model(
      models::Arch::kResNet18,
      bench::paper_exit_fraction(models::Arch::kResNet18));

  struct NamedLink {
    const char* name;
    sim::LinkSpec spec;
  };
  const NamedLink links[] = {{"congested-4G", sim::lte_4g_congested()},
                             {"4G (paper)", sim::lte_4g()},
                             {"WiFi", sim::wifi()}};

  std::printf("%-14s %10s %14s %10s %13s\n", "link", "LCRS", "Neurosurgeon",
              "Edgent", "Mobile-only");
  bench::print_rule(66);
  for (const auto& link : links) {
    sim::LinkSpec spec = link.spec;
    spec.jitter_frac = 0.0;  // deterministic means for the table
    const sim::CostModel cost{sim::mobile_web_browser(), sim::edge_server(),
                              spec};
    const sim::Scenario scenario;
    std::printf(
        "%-14s %10.0f %14.0f %10.0f %13.0f\n", link.name,
        baselines::evaluate_lcrs(lm, cost, scenario).total_ms,
        baselines::evaluate_neurosurgeon(model, cost, scenario).total_ms,
        baselines::evaluate_edgent(model, cost, scenario).total_ms,
        baselines::evaluate_mobile_only(model, cost, scenario).total_ms);
  }
  bench::print_rule(66);
  std::printf("\nExpected shape: LCRS's margin is largest on constrained "
              "links (model loading\nand uploads dominate) and narrows on "
              "WiFi where transfers are cheap.\n");
  return 0;
}
