// Reproduces Figure 10: recognition latency in the Web-AR case study
// (China Mobile logos, ResNet18): LCRS-B (binary-branch exit), LCRS-M
// (edge completion) and the baseline approaches.
//
// The composite is trained on the synthetic logo dataset expanded with
// the paper's augmentation pipeline; LCRS-B/LCRS-M are measured from real
// per-sample exit decisions through the simulated runtime.
#include <cstdio>

#include "baselines/edgent.h"
#include "baselines/lcrs_approach.h"
#include "baselines/local_runtime.h"
#include "baselines/mobile_only.h"
#include "baselines/neurosurgeon.h"
#include "bench_util.h"
#include "common/logging.h"
#include "core/joint_trainer.h"
#include "data/logo.h"

using namespace lcrs;

int main() {
  set_log_level(LogLevel::kWarn);
  std::printf("Figure 10: Web-AR recognition latency, China Mobile case "
              "(ResNet18)\n\n");

  // Build the augmented logo dataset (paper Sec. V-C).
  data::LogoSpec logo_spec;
  logo_spec.num_brands = 10;
  logo_spec.base_per_brand = 6;
  logo_spec.augment_copies = 10;
  Rng rng(77);
  const data::LogoData logos = data::make_logo_data(logo_spec, rng);
  std::printf("logo dataset: %lld train / %lld test samples, %zu brands "
              "(%s, %s, ...)\n",
              static_cast<long long>(logos.train.size()),
              static_cast<long long>(logos.test.size()), logos.names.size(),
              logos.names[0].c_str(), logos.names[1].c_str());

  // Joint-train a width-scaled ResNet18 composite on the logos.
  const models::ModelConfig cfg{models::Arch::kResNet18, 3, 32, 32,
                                logo_spec.num_brands, 0.25};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const core::TrainConfig tc =
      bench::train_config_for(models::Arch::kResNet18, 2, 32);
  core::JointTrainer trainer(net, tc);
  const core::TrainResult result =
      trainer.train(logos.train, logos.test, rng);
  std::printf("trained: M_Acc %.1f%%  B_Acc %.1f%%  tau %.4f  exit %.0f%%\n\n",
              100.0 * result.main_accuracy, 100.0 * result.binary_accuracy,
              result.exit_stats.tau, 100.0 * result.exit_stats.exit_fraction);

  // Measure LCRS-B / LCRS-M from real decisions on 100 scans.
  const sim::CostModel cost = sim::CostModel::paper_default();
  baselines::LocalRuntime runtime(
      net, core::ExitPolicy{result.exit_stats.tau}, cost, Shape{3, 32, 32});
  Rng scan_rng(5);
  double b_total = 0.0, m_total = 0.0;
  std::int64_t b_count = 0, m_count = 0;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t idx = scan_rng.randint(0, logos.test.size() - 1);
    const baselines::SimStep step =
        runtime.classify(logos.test.image(idx), scan_rng);
    const double ms = runtime.amortized_load_ms() + step.total_ms();
    if (step.exit_point == core::ExitPoint::kBinaryBranch) {
      b_total += ms;
      ++b_count;
    } else {
      m_total += ms;
      ++m_count;
    }
  }

  // Baselines on the full-width ResNet18 profile.
  const baselines::ModelUnderTest model =
      bench::full_width_model(models::Arch::kResNet18, logo_spec.num_brands);
  const sim::Scenario scenario;

  std::printf("%-14s %12s\n", "approach", "latency(ms)");
  bench::print_rule(28);
  if (b_count > 0) {
    std::printf("%-14s %12.0f   (%lld scans exited at the browser)\n",
                "LCRS-B", b_total / static_cast<double>(b_count),
                static_cast<long long>(b_count));
  }
  if (m_count > 0) {
    std::printf("%-14s %12.0f   (%lld scans completed at the edge)\n",
                "LCRS-M", m_total / static_cast<double>(m_count),
                static_cast<long long>(m_count));
  }
  std::printf("%-14s %12.0f\n", "Neurosurgeon",
              baselines::evaluate_neurosurgeon(model, cost, scenario)
                  .total_ms);
  std::printf("%-14s %12.0f\n", "Edgent",
              baselines::evaluate_edgent(model, cost, scenario).total_ms);
  std::printf("%-14s %12.0f\n", "Mobile-only",
              baselines::evaluate_mobile_only(model, cost, scenario)
                  .total_ms);
  bench::print_rule(28);
  std::printf("\nPaper reference: LCRS-B and LCRS-M both complete within "
              "hundreds of ms while\nthe DNN-executing frameworks take "
              "seconds; the whole scan-recognize-render\nloop stays under "
              "one second.\n");
  return 0;
}
