// Live edge-server demo (paper Fig. 1/8): a real TCP edge server hosting
// the main branch, and a browser client running the exported webinfer
// engine (conv1 + binary branch). Confident samples exit locally; the
// rest upload their conv1 features over the socket for completion.
//
//   ./edge_server_demo [samples]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "edge/client.h"
#include "edge/server.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

using namespace lcrs;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);
  const std::int64_t samples = argc > 1 ? std::atoll(argv[1]) : 30;

  // Train a small composite so the exit decisions are meaningful.
  Rng rng(11);
  const data::TrainTest tt =
      data::make_synthetic_pair(data::mnist_like(), 1000, 250, rng);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 1.0};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 32;
  core::JointTrainer trainer(net, tc);
  const core::TrainResult result = trainer.train(tt.train, tt.test, rng);

  // Export the browser part; this byte blob is exactly what the paper's
  // Emscripten pipeline would ship to the web page.
  const webinfer::WebModel web_model =
      webinfer::export_browser_model(net, 1, 28, 28);
  const auto blob = webinfer::serialize(web_model);
  std::printf("\nbrowser blob: %.1f KB (%zu ops, %lld shared)\n",
              static_cast<double>(blob.size()) / 1024.0,
              web_model.ops.size(),
              static_cast<long long>(web_model.shared_op_count));

  // Edge server on an ephemeral loopback port, serving the main branch.
  edge::EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    edge::CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });
  std::printf("edge server listening on 127.0.0.1:%u\n\n", server.port());

  // Browser client: loads the blob, classifies with Algorithm 2. The
  // screened tau would let almost everything exit locally on this easy
  // dataset, so the demo uses a stricter threshold to exercise both
  // paths -- browser exits AND socket completions.
  const double demo_tau = std::min(result.exit_stats.tau, 0.02);
  std::printf("screened tau %.3f; using stricter demo tau %.3f\n\n",
              result.exit_stats.tau, demo_tau);
  // Bound every edge completion: 3 attempts, capped backoff, 250 ms
  // total budget, and binary-branch fallback when the edge is gone.
  edge::RetryPolicy retry;
  retry.deadline_ms = 250.0;
  edge::BrowserClient client(webinfer::Engine::from_bytes(blob),
                             core::ExitPolicy{demo_tau}, server.port(),
                             retry);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < samples; ++i) {
    const edge::ClientResult r = client.classify(tt.test.image(i));
    if (r.label == tt.test.labels[static_cast<std::size_t>(i)]) ++correct;
    if (i < 10) {
      std::printf("sample %2lld: predicted %lld (truth %lld), entropy %.3f "
                  "[%s]\n",
                  static_cast<long long>(i), static_cast<long long>(r.label),
                  static_cast<long long>(
                      tt.test.labels[static_cast<std::size_t>(i)]),
                  r.entropy, core::to_string(r.exit_point));
    }
  }

  const std::int64_t served = server.requests_served();
  const double completion_ms =
      server.metrics().snapshot().find_histogram(
          obs::names::kServerCompletionUs)->sum / 1e3;
  std::printf("\naccuracy %.0f%% over %lld samples; %.0f%% exited at the "
              "binary branch;\nedge server completed %lld requests "
              "(%.2f ms mean).\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(samples),
              static_cast<long long>(samples),
              100.0 * client.exit_fraction(), static_cast<long long>(served),
              completion_ms / static_cast<double>(std::max<std::int64_t>(
                                  served, 1)));

  // Graceful degradation: kill the edge server, then classify again. The
  // client retries, gives up within its deadline, and still answers from
  // the binary branch instead of throwing.
  server.stop();
  const std::int64_t offline = std::min<std::int64_t>(samples, 5);
  std::printf("\nedge server stopped; classifying %lld more samples "
              "offline...\n",
              static_cast<long long>(offline));
  std::int64_t offline_correct = 0;
  for (std::int64_t i = 0; i < offline; ++i) {
    const edge::ClientResult r = client.classify(tt.test.image(i));
    if (r.label == tt.test.labels[static_cast<std::size_t>(i)]) {
      ++offline_correct;
    }
  }
  const obs::Snapshot cs = client.metrics().snapshot();
  std::printf("offline accuracy %lld/%lld; %lld fallback answers, "
              "%lld retries, %lld reconnects.\n",
              static_cast<long long>(offline_correct),
              static_cast<long long>(offline),
              static_cast<long long>(client.fallbacks()),
              static_cast<long long>(
                  cs.find_counter(obs::names::kClientRetries)->value),
              static_cast<long long>(
                  cs.find_counter(obs::names::kClientReconnects)->value));
  return 0;
}
