// Reproduces Figure 6: average end-to-end latency of LCRS as the number
// of processed samples grows, for each network.
//
// Inference decisions are *real* (trained composite + Algorithm 2 on
// synthetic CIFAR10-like inputs); per-stage timings come from the
// calibrated cost model with link jitter, so the series shows the
// paper's behaviour: a stable average with communication-driven
// fluctuations.
#include <cstdio>

#include "baselines/local_runtime.h"
#include "bench_util.h"
#include "common/logging.h"

using namespace lcrs;

int main() {
  set_log_level(LogLevel::kWarn);
  std::printf("Figure 6: average LCRS latency vs number of samples "
              "(CIFAR10-like, jittered 4G)\n\n");

  const std::int64_t counts[] = {20, 40, 60, 80, 100, 120, 140, 160, 180,
                                 200};
  std::printf("%-10s", "samples");
  for (const auto c : counts) std::printf(" %6lld", static_cast<long long>(c));
  std::printf("\n");
  bench::print_rule(12 + 7 * 10);

  std::uint64_t seed = 900;
  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    core::TrainConfig tc = bench::train_config_for(arch, 2, 32);
    bench::BudgetedRun budget;
    budget.train_n = arch == models::Arch::kLeNet ? 800 : 320;
    budget.test_n = 220;
    bench::TrainedCombo combo =
        bench::run_combo(arch, "CIFAR10", seed++, &tc, &budget);

    sim::LinkSpec link = sim::lte_4g();
    link.jitter_frac = 0.25;  // the paper's unstable-wireless setting
    sim::CostModel cost{sim::mobile_web_browser(), sim::edge_server(), link};
    baselines::LocalRuntime runtime(
        *combo.net, core::ExitPolicy{combo.result.exit_stats.tau}, cost,
        Shape{3, 32, 32});

    Rng rng(seed * 13);
    std::printf("%-10s", combo.network.c_str());
    for (const auto count : counts) {
      double total =
          runtime.amortized_load_ms() * static_cast<double>(count);
      for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t idx =
            rng.randint(0, combo.data.test.size() - 1);
        total += runtime.classify(combo.data.test.image(idx), rng).total_ms();
      }
      std::printf(" %6.0f", total / static_cast<double>(count));
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  bench::print_rule(12 + 7 * 10);
  std::printf("\nPaper reference: the average latency stays nearly flat in "
              "the sample count;\ncommunication jitter causes small "
              "fluctuations. Note the browser compute here\nis priced on "
              "width-scaled networks, so absolute values sit below Table "
              "II's\nfull-width numbers.\n");
  return 0;
}
