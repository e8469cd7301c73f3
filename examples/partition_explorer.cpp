// Partition explorer: per-layer cut costs for any model in the zoo under
// the paper's cost model -- the analysis behind Neurosurgeon/Edgent and
// the paper's claim that no cut of a full-precision model suits the
// mobile web browser.
//
//   ./partition_explorer [LeNet|AlexNet|ResNet18|VGG16]
#include <cstdio>
#include <string>

#include "baselines/neurosurgeon.h"
#include "common/logging.h"
#include "models/accounting.h"
#include "models/zoo.h"

using namespace lcrs;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const std::string arch_name = argc > 1 ? argv[1] : "AlexNet";
  const models::Arch arch = models::arch_by_name(arch_name);

  Rng rng(1);
  const models::ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
  auto mono = models::build_monolithic(cfg, rng);
  baselines::ModelUnderTest model;
  model.name = arch_name;
  model.layers = models::profile_layers(*mono, Shape{3, 32, 32});

  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  const sim::DeviceModel native{sim::mobile_native()};
  const std::size_t n = model.layers.size();

  std::printf("%s: %zu layers, %.2f MB total, %.1f MFLOP per sample\n\n",
              arch_name.c_str(), n,
              static_cast<double>(model.total_model_bytes()) /
                  (1024.0 * 1024.0),
              static_cast<double>(models::summarize(model.layers).total_flops)
                  / 1e6);
  std::printf("%4s %-12s %10s %10s %11s %11s %11s\n", "cut", "after",
              "sliceMB", "uploadKB", "native(ms)", "web(ms)", "webcomm");
  for (std::size_t cut = 0; cut <= n; ++cut) {
    const std::int64_t upload =
        cut < n ? model.upload_bytes(cut, scenario) : 0;
    const double native_ms =
        cost.compute_ms(model.layers, 0, cut, native) +
        (cut < n ? cost.network().upload_ms(upload) +
                       cost.network().download_ms(scenario.result_bytes)
                 : 0.0) +
        cost.edge_compute_ms(model.layers, cut, n);
    const double load_ms =
        cost.network().download_ms(model.prefix_model_bytes(cut)) /
        static_cast<double>(scenario.session_samples);
    const double web_comm =
        load_ms + (cut < n ? cost.network().upload_ms(upload) +
                                 cost.network().download_ms(
                                     scenario.result_bytes)
                           : 0.0);
    const double web_ms = web_comm +
                          cost.browser_compute_ms(model.layers, 0, cut) +
                          cost.edge_compute_ms(model.layers, cut, n);
    std::printf("%4zu %-12s %10.3f %10.1f %11.1f %11.1f %11.1f\n", cut,
                cut == 0 ? "(input)" : model.layers[cut - 1].kind.c_str(),
                static_cast<double>(model.prefix_model_bytes(cut)) /
                    (1024.0 * 1024.0),
                static_cast<double>(upload) / 1024.0, native_ms, web_ms,
                web_comm);
  }

  const baselines::NeurosurgeonDecision d =
      baselines::neurosurgeon_partition(model, cost, scenario, native);
  std::printf("\nNeurosurgeon picks cut %zu (predicted native latency "
              "%.1f ms);\non the mobile web the same cut costs %.1f ms.\n",
              d.cut, d.predicted_native_ms,
              baselines::evaluate_neurosurgeon(model, cost, scenario)
                  .total_ms);
  return 0;
}
