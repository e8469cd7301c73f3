// Ablation: binarization vs int8 quantization vs full precision.
//
// The paper picks 1-bit binarization over classic compression because the
// browser payload must be tiny AND the arithmetic must accelerate (Sec.
// II-B / III-B). This bench quantifies both axes: what each
// representation ships to the browser, how long the 4G load takes, and
// the per-sample browser compute under the device model.
//
// The bin column is LCRS's serialized browser blob (float conv1, the
// bit-packed branch and the blob's header and per-op framing), the same
// bytes as Fig. 7's LCRS column; fp32 and int8 are weight sums.
#include <cstdio>

#include "baselines/lcrs_approach.h"
#include "bench_util.h"
#include "common/logging.h"

using namespace lcrs;

int main() {
  set_log_level(LogLevel::kWarn);
  const sim::CostModel cost = sim::CostModel::paper_default();

  std::printf("Ablation: model representation vs browser cost (CIFAR10 "
              "networks)\n\n");
  std::printf("%-10s | %9s %9s %9s | %9s %9s %9s | %10s %10s\n", "-",
              "fp32(MB)", "int8(MB)", "bin(MB)", "fp32 load", "int8 load",
              "bin load", "fp32 comp", "bin comp");
  bench::print_rule(104);

  for (const auto arch : {models::Arch::kLeNet, models::Arch::kAlexNet,
                          models::Arch::kResNet18, models::Arch::kVgg16}) {
    Rng rng(9);
    const models::ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
    auto mono = models::build_monolithic(cfg, rng);
    const baselines::LcrsModel lcrs =
        bench::full_width_lcrs_model(arch, bench::paper_exit_fraction(arch));

    const std::int64_t fp32_bytes = mono->param_bytes();
    const std::int64_t int8_bytes = models::int8_payload_bytes(*mono);
    const std::int64_t bin_bytes = lcrs.browser_model_bytes;
    const auto profiles = models::profile_layers(*mono, Shape{3, 32, 32});

    const auto mb = [](std::int64_t b) {
      return static_cast<double>(b) / (1024.0 * 1024.0);
    };
    // int8 inference runs the same MAC count as fp32 on the browser (no
    // XNOR shortcut), so its compute column equals fp32's.
    std::printf("%-10s | %9.3f %9.3f %9.3f | %8.0fms %8.0fms %8.0fms | "
                "%9.0fms %9.0fms\n",
                models::arch_name(arch).c_str(), mb(fp32_bytes),
                mb(int8_bytes), mb(bin_bytes),
                cost.network().download_ms(fp32_bytes),
                cost.network().download_ms(int8_bytes),
                cost.network().download_ms(bin_bytes),
                cost.browser_compute_ms(profiles, 0, profiles.size()),
                baselines::lcrs_path_costs(lcrs, cost, sim::Scenario{})
                    .browser_ms);
  }

  bench::print_rule(104);
  std::printf("\nTakeaway: int8 shrinks the payload ~4x but leaves browser "
              "compute untouched;\nonly the binary branch wins on both axes "
              "at once, which is the paper's design\nargument for LCRS.\n");
  return 0;
}
