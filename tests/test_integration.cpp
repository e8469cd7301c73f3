// Cross-module integration tests: the full paper pipeline end-to-end --
// train -> screen tau -> export blob -> save/load -> serve over TCP ->
// classify -- plus consistency between the simulated and socket runtimes.
#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/local_runtime.h"
#include "common/bytes.h"
#include "core/inference.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "edge/client.h"
#include "edge/server.h"
#include "nn/model_io.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace lcrs {
namespace {

struct Pipeline {
  std::unique_ptr<core::CompositeNetwork> net;
  data::TrainTest data;
  core::TrainResult result;
};

/// One shared trained pipeline for the whole suite (training is the
/// expensive part; the assertions are independent).
Pipeline& pipeline() {
  static Pipeline* p = [] {
    auto* pipe = new Pipeline();
    Rng rng(31337);
    pipe->data = data::make_synthetic_pair(data::mnist_like(), 640, 160, rng);
    const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
    pipe->net = std::make_unique<core::CompositeNetwork>(
        core::CompositeNetwork::build(cfg, rng));
    core::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 32;
    tc.verbose = false;
    core::JointTrainer trainer(*pipe->net, tc);
    pipe->result = trainer.train(pipe->data.train, pipe->data.test, rng);
    return pipe;
  }();
  return *p;
}

TEST(Pipeline, TrainingReachesUsableAccuracy) {
  const Pipeline& p = pipeline();
  EXPECT_GT(p.result.main_accuracy, 0.6);
  EXPECT_GT(p.result.binary_accuracy, 0.5);
}

TEST(Pipeline, BlobSurvivesDiskRoundTrip) {
  Pipeline& p = pipeline();
  const auto blob = webinfer::serialize(
      webinfer::export_browser_model(*p.net, 1, 28, 28));
  const std::string path = ::testing::TempDir() + "/lcrs_pipeline_blob.bin";
  write_file(path, blob);
  const webinfer::Engine engine =
      webinfer::Engine::from_bytes(read_file(path));
  std::remove(path.c_str());

  const Tensor x = p.data.test.images.slice_outer(0, 4);
  const core::CompositeOutput ref = p.net->forward_binary_only(x);
  EXPECT_EQ(argmax_rows(ref.binary_logits), argmax_rows(engine.forward(x)));
}

TEST(Pipeline, FrameworkWeightsSurviveDiskRoundTrip) {
  Pipeline& p = pipeline();
  const std::string path = ::testing::TempDir() + "/lcrs_pipeline_params.bin";

  // Save the binary branch, reload into a freshly built identical
  // composite, and check the branch outputs match exactly.
  nn::save_params_file(p.net->binary_branch(), path);
  Rng rng(31337);  // same seed -> same architecture
  (void)data::make_synthetic_pair(data::mnist_like(), 640, 160, rng);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork fresh = core::CompositeNetwork::build(cfg, rng);
  nn::load_params_file(fresh.binary_branch(), path);
  std::remove(path.c_str());

  const Tensor x = p.data.test.images.slice_outer(0, 2);
  const Tensor shared = p.net->shared_stage().forward(x, false);
  EXPECT_EQ(max_abs_diff(p.net->binary_branch().forward(shared, false),
                         fresh.binary_branch().forward(shared, false)),
            0.0f);
}

TEST(Pipeline, SocketAndSimulatedRuntimesAgreeOnDecisions) {
  Pipeline& p = pipeline();
  const core::ExitPolicy policy{p.result.exit_stats.tau};

  edge::EdgeServer server(0, [&](const Tensor& shared) {
    const Tensor logits = p.net->forward_main_from_shared(shared);
    edge::CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  });
  edge::BrowserClient client(
      webinfer::Engine(webinfer::export_browser_model(*p.net, 1, 28, 28)),
      policy, server.port());
  baselines::LocalRuntime sim_runtime(*p.net, policy,
                                      sim::CostModel::paper_default(),
                                      Shape{1, 28, 28});

  Rng rng(5);
  int label_agreements = 0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const Tensor sample = p.data.test.image(i);
    const edge::ClientResult via_socket = client.classify(sample);
    const baselines::SimStep via_sim = sim_runtime.classify(sample, rng);
    EXPECT_EQ(via_socket.exit_point, via_sim.exit_point) << "sample " << i;
    if (via_socket.label == via_sim.label) ++label_agreements;
  }
  EXPECT_GE(label_agreements, n - 1);  // engine float noise may flip a tie
}

TEST(Pipeline, ExitFractionMatchesScreeningPrediction) {
  Pipeline& p = pipeline();
  const core::ExitPolicy policy{p.result.exit_stats.tau};
  std::int64_t exits = 0;
  const std::int64_t n = p.data.test.size();
  for (std::int64_t i = 0; i < n; ++i) {
    const core::InferenceResult r =
        core::collaborative_infer(*p.net, policy, p.data.test.image(i));
    if (r.exit_point == core::ExitPoint::kBinaryBranch) ++exits;
  }
  const double measured =
      static_cast<double>(exits) / static_cast<double>(n);
  // Screening ran on this same test set, so the fractions must agree.
  EXPECT_NEAR(measured, p.result.exit_stats.exit_fraction, 1e-9);
}

TEST(Pipeline, CollaborationBeatsBinaryOnlyAccuracy) {
  Pipeline& p = pipeline();
  const core::ExitPolicy policy{p.result.exit_stats.tau};
  std::int64_t collab_correct = 0, binary_correct = 0;
  const std::int64_t n = p.data.test.size();
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor sample = p.data.test.image(i);
    const std::int64_t truth = p.data.test.labels[static_cast<std::size_t>(i)];
    const core::InferenceResult collab =
        core::collaborative_infer(*p.net, policy, sample);
    if (collab.predicted == truth) ++collab_correct;
    const core::CompositeOutput bin = p.net->forward_binary_only(sample);
    if (argmax_rows(bin.binary_logits)[0] == truth) ++binary_correct;
  }
  // The whole point of LCRS: the edge fallback recovers accuracy the
  // binary branch alone loses.
  EXPECT_GE(collab_correct, binary_correct);
}

}  // namespace
}  // namespace lcrs
