// Ablation: edge-server capacity under concurrent Web-AR users.
//
// The paper's case for collaborative execution over edge-only includes
// "the computing cost of high concurrent requests is unacceptable"
// (Sec. I). This bench quantifies it two ways:
//   1. Analytically (M/D/1): sustainable recognitions/sec keeping the
//      mean edge response under 100 ms, for edge-only vs LCRS.
//   2. Empirically: saturation throughput of the *real* TCP edge server
//      on this machine under 4 concurrent clients, full-model vs
//      rest-only completions.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "edge/server.h"
#include "sim/queueing.h"
#include "tensor/tensor_ops.h"

using namespace lcrs;

namespace {

double measure_server_throughput(core::CompositeNetwork& net,
                                 bool full_model, int n_clients,
                                 int requests_each) {
  edge::EdgeServer server(0, [&](const Tensor& shared) {
    // Edge-only is modeled by also charging the conv1 stage at the edge.
    Tensor features = shared;
    if (full_model) {
      // shared here carries the raw input instead.
      features = net.shared_stage().forward(shared, false);
    }
    const Tensor logits = net.forward_main_from_shared(features);
    edge::CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });

  Rng rng(9);
  const Tensor input = full_model
                           ? Tensor::randn(Shape{1, 3, 32, 32}, rng)
                           : net.shared_stage().forward(
                                 Tensor::randn(Shape{1, 3, 32, 32}, rng),
                                 false);
  Stopwatch sw;
  std::vector<std::thread> clients;
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&] {
      edge::Socket conn = edge::connect_local(server.port());
      for (int i = 0; i < requests_each; ++i) {
        conn.send_frame(edge::Frame{edge::MsgType::kCompleteRequest,
                                    edge::make_complete_request(input)});
        (void)conn.recv_frame();
      }
    });
  }
  for (auto& t : clients) t.join();
  return static_cast<double>(n_clients * requests_each) / sw.seconds();
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  std::printf("Ablation: edge-server concurrency, ResNet18 / CIFAR10\n\n");

  // Analytic capacity from the calibrated cost model.
  const sim::CostModel cost = sim::CostModel::paper_default();
  const auto profiles = bench::full_width_model(models::Arch::kResNet18).layers;
  const baselines::LcrsModel lcrs = bench::full_width_lcrs_model(
      models::Arch::kResNet18,
      bench::paper_exit_fraction(models::Arch::kResNet18));

  sim::EdgeLoadProfile load;
  load.full_model_ms = cost.edge_compute_ms(profiles, 0, profiles.size());
  load.rest_only_ms = cost.edge_compute_ms(lcrs.rest, 0, lcrs.rest.size());
  load.exit_fraction = lcrs.exit_fraction;

  std::printf("analytic (M/D/1, mean edge response <= 100 ms):\n");
  std::printf("  edge-only: service %.2f ms -> %.0f recognitions/s\n",
              load.full_model_ms,
              sim::max_sustainable_rate(load.full_model_ms, 100.0));
  std::printf("  LCRS:      effective %.2f ms -> %.0f recognitions/s "
              "(%.1fx capacity)\n\n",
              load.lcrs_effective_ms(),
              sim::max_sustainable_rate(load.lcrs_effective_ms(), 100.0) ,
              load.capacity_multiplier());

  // Empirical: the real TCP server on a width-scaled model.
  const models::ModelConfig small{models::Arch::kResNet18, 3, 32, 32, 10,
                                  0.25};
  Rng rng2(10);
  core::CompositeNetwork net = core::CompositeNetwork::build(small, rng2);
  const double full_rps =
      measure_server_throughput(net, /*full_model=*/true, 4, 6);
  const double rest_rps =
      measure_server_throughput(net, /*full_model=*/false, 4, 6);
  std::printf("empirical (real TCP server, width-0.25 model, 4 clients):\n");
  std::printf("  full-model completions: %.1f req/s\n", full_rps);
  std::printf("  rest-only completions:  %.1f req/s\n", rest_rps);
  std::printf("  per-request speedup %.2fx; with %.0f%% browser exits the "
              "per-recognition edge\n  capacity multiplier is %.1fx.\n",
              rest_rps / full_rps, 100.0 * load.exit_fraction,
              (rest_rps / full_rps) / (1.0 - load.exit_fraction));
  return 0;
}
