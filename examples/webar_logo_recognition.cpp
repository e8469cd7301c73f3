// Web-AR logo recognition (paper Sec. V-C): the China Mobile / FenJiu
// case study. Generates a synthetic brand-logo dataset, expands it with
// the paper's augmentation pipeline, jointly trains a composite ResNet18,
// and replays a scan -> recognize -> render loop with per-stage latency
// from the calibrated device/link simulation.
//
//   ./webar_logo_recognition [scans]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/local_runtime.h"
#include "common/logging.h"
#include "core/joint_trainer.h"
#include "data/image_io.h"
#include "data/logo.h"

using namespace lcrs;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);
  const std::int64_t scans = argc > 1 ? std::atoll(argv[1]) : 12;

  // Brand dataset: clean renders expanded by rotation / translation /
  // zoom / flips / colour perturbation, as in the paper.
  data::LogoSpec spec;
  spec.num_brands = 8;
  spec.base_per_brand = 6;
  spec.augment_copies = 10;
  Rng rng(7);
  const data::LogoData logos = data::make_logo_data(spec, rng);
  std::printf("brands:");
  for (const auto& name : logos.names) std::printf(" %s", name.c_str());
  std::printf("\ntrain %lld / test %lld samples\n",
              static_cast<long long>(logos.train.size()),
              static_cast<long long>(logos.test.size()));

  // Dump a contact sheet of augmented scans (the repo's Fig. 9).
  data::write_image_grid("logo_scans.ppm", logos.train.images,
                         std::min<std::int64_t>(16, logos.train.size()), 4);
  std::printf("wrote logo_scans.ppm (augmented training scans)\n\n");

  // Composite ResNet18 (width-scaled for CPU training).
  const models::ModelConfig cfg{models::Arch::kResNet18, 3, 32, 32,
                                spec.num_brands, 0.25};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 32;
  tc.lr_main = 3e-3;          // deep-net settings (see bench_util.h)
  tc.weight_decay_main = 3e-4;
  core::JointTrainer trainer(net, tc);
  const core::TrainResult result = trainer.train(logos.train, logos.test, rng);
  std::printf("\nM_Acc %.1f%%  B_Acc %.1f%%  tau %.4f\n\n",
              100.0 * result.main_accuracy, 100.0 * result.binary_accuracy,
              result.exit_stats.tau);

  // Scan loop with the simulated browser/edge/4G timeline.
  baselines::LocalRuntime runtime(net, core::ExitPolicy{result.exit_stats.tau},
                                  sim::CostModel::paper_default(),
                                  Shape{3, 32, 32});
  std::printf("%-5s %-12s %-12s %8s %8s %8s %8s %9s\n", "scan", "truth",
              "recognized", "browser", "upload", "edge", "reply", "total");
  Rng scan_rng(99);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < scans; ++i) {
    const std::int64_t idx = scan_rng.randint(0, logos.test.size() - 1);
    const baselines::SimStep step =
        runtime.classify(logos.test.image(idx), scan_rng);
    const std::int64_t truth =
        logos.test.labels[static_cast<std::size_t>(idx)];
    if (step.label == truth) ++correct;
    std::printf("%-5lld %-12s %-12s %7.1fms %7.1fms %7.1fms %7.1fms %8.1fms"
                " %s\n",
                static_cast<long long>(i),
                logos.names[static_cast<std::size_t>(truth)].c_str(),
                step.label >= 0
                    ? logos.names[static_cast<std::size_t>(step.label)]
                          .c_str()
                    : "?",
                step.browser_ms, step.upload_ms, step.edge_ms,
                step.download_ms, step.total_ms(),
                step.exit_point == core::ExitPoint::kBinaryBranch
                    ? "[LCRS-B]"
                    : "[LCRS-M]");
  }
  std::printf("\n%lld/%lld scans recognized correctly; browser model "
              "payload %.2f MB,\namortized load %.1f ms per scan.\n",
              static_cast<long long>(correct),
              static_cast<long long>(scans),
              static_cast<double>(runtime.browser_model_bytes()) /
                  (1024.0 * 1024.0),
              runtime.amortized_load_ms());
  return 0;
}
