// LCRS core tests: entropy (Eq. 7), exit policy screening, composite
// network joint forward/backward (Eq. 1), joint training (Algorithm 1),
// and collaborative inference (Algorithm 2).
#include <gtest/gtest.h>

#include <cmath>

#include "core/checkpoint.h"
#include "core/composite.h"
#include "core/entropy.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "nn/linear.h"
#include "nn/model_io.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace lcrs::core {
namespace {

TEST(Entropy, UniformIsOneConfidentIsZero) {
  std::vector<float> uniform(8, 0.125f);
  EXPECT_NEAR(normalized_entropy(uniform.data(), 8), 1.0, 1e-6);

  std::vector<float> onehot(8, 0.0f);
  onehot[3] = 1.0f;
  EXPECT_NEAR(normalized_entropy(onehot.data(), 8), 0.0, 1e-9);
}

TEST(Entropy, BoundedInUnitIntervalForRandomDistributions) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t c = rng.randint(2, 64);
    std::vector<float> p(static_cast<std::size_t>(c));
    double sum = 0.0;
    for (auto& v : p) {
      v = static_cast<float>(rng.uniform(0.001, 1.0));
      sum += static_cast<double>(v);
    }
    for (auto& v : p) v = static_cast<float>(static_cast<double>(v) / sum);
    const double s = normalized_entropy(p.data(), c);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);
  }
}

TEST(Entropy, RowsVariantMatchesScalar) {
  Tensor probs{Shape{2, 4}};
  for (std::int64_t c = 0; c < 4; ++c) probs.at2(0, c) = 0.25f;
  probs.at2(1, 0) = 0.97f;
  for (std::int64_t c = 1; c < 4; ++c) probs.at2(1, c) = 0.01f;
  const Tensor s = normalized_entropy_rows(probs);
  EXPECT_NEAR(s[0], 1.0, 1e-6);
  EXPECT_NEAR(s[1], normalized_entropy(probs.data() + 4, 4), 1e-6);
  EXPECT_LT(s[1], s[0]);
}

TEST(ExitPolicy, ThresholdSemantics) {
  const ExitPolicy p{0.1};
  EXPECT_TRUE(p.should_exit(0.05));
  EXPECT_FALSE(p.should_exit(0.1));   // strict less-than
  EXPECT_FALSE(p.should_exit(0.5));
}

std::vector<ExitSample> synthetic_screening() {
  // 50 confident-and-correct, 30 confident-and-wrong at higher entropy,
  // 20 unconfident.
  std::vector<ExitSample> s;
  for (int i = 0; i < 50; ++i) s.push_back({0.01 + i * 1e-4, true});
  for (int i = 0; i < 30; ++i) s.push_back({0.20 + i * 1e-3, false});
  for (int i = 0; i < 20; ++i) s.push_back({0.80 + i * 1e-3, true});
  return s;
}

TEST(ExitPolicy, EvaluateThresholdCounts) {
  const auto samples = synthetic_screening();
  const ExitStats low = evaluate_threshold(samples, 0.1);
  EXPECT_NEAR(low.exit_fraction, 0.5, 1e-9);
  EXPECT_NEAR(low.exited_accuracy, 1.0, 1e-9);

  const ExitStats mid = evaluate_threshold(samples, 0.5);
  EXPECT_NEAR(mid.exit_fraction, 0.8, 1e-9);
  EXPECT_NEAR(mid.exited_accuracy, 50.0 / 80.0, 1e-9);
}

TEST(ExitPolicy, ExitFractionMonotoneInTau) {
  const auto samples = synthetic_screening();
  double prev = -1.0;
  for (const double tau : default_tau_grid()) {
    const double frac = evaluate_threshold(samples, tau).exit_fraction;
    EXPECT_GE(frac, prev);
    prev = frac;
  }
}

TEST(ExitPolicy, ChooseThresholdRespectsAccuracyConstraint) {
  const auto samples = synthetic_screening();
  const ExitStats chosen =
      choose_threshold(samples, default_tau_grid(), 0.95);
  // Must pick a tau that exits the 50 good samples but not the wrong ones.
  EXPECT_NEAR(chosen.exit_fraction, 0.5, 1e-9);
  EXPECT_GE(chosen.exited_accuracy, 0.95);

  const ExitStats lax = choose_threshold(samples, default_tau_grid(), 0.0);
  EXPECT_GT(lax.exit_fraction, chosen.exit_fraction);
}

core::CompositeNetwork tiny_composite(Rng& rng) {
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  return CompositeNetwork::build(cfg, rng);
}

TEST(Composite, ForwardProducesBothBranchLogits) {
  Rng rng(2);
  CompositeNetwork net = tiny_composite(rng);
  const Tensor x = Tensor::randn(Shape{4, 1, 28, 28}, rng);
  const CompositeOutput out = net.forward(x, false);
  EXPECT_EQ(out.main_logits.shape(), (Shape{4, 10}));
  EXPECT_EQ(out.binary_logits.shape(), (Shape{4, 10}));
  EXPECT_EQ(out.shared.dim(0), 4);
}

TEST(Composite, MainFromSharedMatchesFullForward) {
  Rng rng(3);
  CompositeNetwork net = tiny_composite(rng);
  const Tensor x = Tensor::randn(Shape{2, 1, 28, 28}, rng);
  const CompositeOutput out = net.forward(x, false);
  const Tensor main2 = net.forward_main_from_shared(out.shared);
  EXPECT_LT(max_abs_diff(out.main_logits, main2), 1e-5f);
}

// Serving never trains, so a network that is only prepared, exported and
// run allocates no gradient buffers.
TEST(Composite, ServingNetworkHoldsNoGradients) {
  Rng rng(5);
  CompositeNetwork net = tiny_composite(rng);
  net.prepare_edge_inference();
  (void)webinfer::export_browser_model(net, 1, 28, 28);
  const Tensor x = Tensor::randn(Shape{2, 1, 28, 28}, rng);
  (void)net.forward_main_from_shared(net.forward_binary_only(x).shared);
  for (nn::Param* p : net.params()) {
    EXPECT_EQ(p->grad().numel(), 0) << p->name;
  }
}

// Loading weights into a prepared network must not leave the edge
// serving the old weights' cached W^T, and the network stays prepared.
TEST(Composite, PreparedNetworkServesLoadedWeights) {
  Rng rng_a(1), rng_b(2);
  CompositeNetwork a = tiny_composite(rng_a);
  CompositeNetwork b = tiny_composite(rng_b);
  a.prepare_edge_inference();
  b.prepare_edge_inference();
  nn::load_params(a.main_rest(), nn::save_params(b.main_rest()));

  const Tensor shared = Tensor::randn(
      Shape{3, a.shared_out_c(), a.shared_out_h(), a.shared_out_w()}, rng_a);
  EXPECT_EQ(max_abs_diff(a.forward_main_from_shared(shared),
                         b.forward_main_from_shared(shared)),
            0.0f);
  int prepared = 0;
  for (nn::Layer* layer : a.main_rest().children()) {
    if (auto* fc = dynamic_cast<nn::Linear*>(layer)) {
      EXPECT_TRUE(fc->inference_prepared());
      ++prepared;
    }
  }
  EXPECT_GT(prepared, 0);
}

TEST(Composite, JointBackwardTouchesSharedStage) {
  Rng rng(4);
  CompositeNetwork net = tiny_composite(rng);
  const Tensor x = Tensor::randn(Shape{2, 1, 28, 28}, rng);
  net.zero_grad();
  const CompositeOutput out = net.forward(x, true);
  net.backward(Tensor::ones(out.main_logits.shape()),
               Tensor::ones(out.binary_logits.shape()));
  // Shared conv1 must accumulate gradient from BOTH branches (Eq. 1).
  double shared_grad = 0.0;
  for (nn::Param* p : net.shared_stage().params()) {
    shared_grad += l2_norm(p->grad());
  }
  EXPECT_GT(shared_grad, 0.0);
  for (nn::Param* p : net.binary_params()) {
    EXPECT_GT(l2_norm(p->grad()) + 1e-12, 0.0);
  }
}

TEST(Composite, ParamPartitionIsDisjointAndComplete) {
  Rng rng(5);
  CompositeNetwork net = tiny_composite(rng);
  const auto all = net.params();
  const auto main = net.main_params();
  const auto binary = net.binary_params();
  EXPECT_EQ(all.size(), main.size() + binary.size());
  for (nn::Param* p : binary) {
    EXPECT_EQ(std::count(main.begin(), main.end(), p), 0);
  }
}

TEST(JointTrainer, LearnsOnSyntheticMnist) {
  Rng rng(6);
  CompositeNetwork net = tiny_composite(rng);
  const data::TrainTest tt =
      data::make_synthetic_pair(data::mnist_like(), 512, 128, rng);

  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.verbose = false;
  JointTrainer trainer(net, cfg);
  const TrainResult result = trainer.train(tt.train, tt.test, rng);

  EXPECT_EQ(result.curve.size(), 3u);
  EXPECT_GT(result.main_accuracy, 0.5);
  EXPECT_GT(result.binary_accuracy, 0.4);
  // Loss should decrease over training.
  EXPECT_LT(result.curve.back().train_loss, result.curve.front().train_loss);
  // Exit stats must be a valid probability.
  EXPECT_GE(result.exit_stats.exit_fraction, 0.0);
  EXPECT_LE(result.exit_stats.exit_fraction, 1.0);
}

TEST(Inference, Algorithm2RoutesByEntropy) {
  Rng rng(7);
  CompositeNetwork net = tiny_composite(rng);
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);

  // tau = 1.1: everything exits at the binary branch.
  const InferenceResult always_exit =
      collaborative_infer(net, ExitPolicy{1.1}, x);
  EXPECT_EQ(always_exit.exit_point, ExitPoint::kBinaryBranch);

  // tau = 0: nothing exits; the main branch decides.
  const InferenceResult never_exit =
      collaborative_infer(net, ExitPolicy{0.0}, x);
  EXPECT_EQ(never_exit.exit_point, ExitPoint::kMainBranch);

  // The shared tensor matches conv1 output in both cases.
  EXPECT_EQ(always_exit.shared.shape(), never_exit.shared.shape());
  EXPECT_LT(max_abs_diff(always_exit.shared, never_exit.shared), 1e-6f);
}

TEST(Inference, MainPathMatchesDirectMainForward) {
  Rng rng(8);
  CompositeNetwork net = tiny_composite(rng);
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  const InferenceResult r = collaborative_infer(net, ExitPolicy{0.0}, x);
  const CompositeOutput direct = net.forward(x, false);
  const auto direct_pred = argmax_rows(direct.main_logits);
  EXPECT_EQ(r.predicted, direct_pred[0]);
}

TEST(ExitPolicy, MaxProbGateSemantics) {
  const MaxProbPolicy p{0.8};
  std::vector<float> confident{0.85f, 0.1f, 0.05f};
  std::vector<float> unsure{0.5f, 0.3f, 0.2f};
  EXPECT_TRUE(p.should_exit(confident.data(), 3));
  EXPECT_FALSE(p.should_exit(unsure.data(), 3));
}

TEST(ExitPolicy, MaxProbAndEntropyGatesAgreeOnExtremes) {
  // Both gates must exit a near-one-hot distribution and hold a uniform
  // one, whatever reasonable thresholds are used.
  std::vector<float> onehot{0.97f, 0.01f, 0.01f, 0.01f};
  std::vector<float> uniform{0.25f, 0.25f, 0.25f, 0.25f};
  const MaxProbPolicy mp{0.9};
  const ExitPolicy ep{0.3};
  EXPECT_TRUE(mp.should_exit(onehot.data(), 4));
  EXPECT_TRUE(ep.should_exit(normalized_entropy(onehot.data(), 4)));
  EXPECT_FALSE(mp.should_exit(uniform.data(), 4));
  EXPECT_FALSE(ep.should_exit(normalized_entropy(uniform.data(), 4)));
}

TEST(ExitPolicy, MaxProbScreeningReusesThresholdMachinery) {
  std::vector<std::vector<float>> rows{{0.95f, 0.05f},   // confident right
                                       {0.90f, 0.10f},   // confident right
                                       {0.85f, 0.15f},   // confident wrong
                                       {0.55f, 0.45f}};  // unsure right
  const std::vector<bool> correct{true, true, false, true};
  const auto samples = maxprob_samples_from_probs(rows, correct);
  ASSERT_EQ(samples.size(), 4u);
  // Screening for perfect exited accuracy keeps only the two most
  // confident (and correct) samples.
  const ExitStats st =
      choose_threshold(samples, {0.08, 0.12, 0.2, 0.5}, 1.0);
  EXPECT_NEAR(st.exit_fraction, 0.5, 1e-9);
  EXPECT_NEAR(st.exited_accuracy, 1.0, 1e-9);
}

TEST(Checkpoint, RoundTripsNetworkAndMetadata) {
  Rng rng(20);
  const models::ModelConfig cfg{models::Arch::kResNet18, 3, 32, 32, 10,
                                0.125};
  const models::BinaryBranchConfig bc =
      models::default_branch(models::Arch::kResNet18);
  CompositeNetwork net = CompositeNetwork::build(cfg, bc, rng);
  // Move batch-norm state off its defaults so the round-trip is honest.
  net.forward(Tensor::randn(Shape{4, 3, 32, 32}, rng), /*train=*/true);

  const Checkpoint ckpt{cfg, bc, 0.123};
  const auto bytes = save_composite(net, ckpt);
  LoadedComposite loaded = load_composite(bytes);

  EXPECT_EQ(loaded.ckpt.config.arch, cfg.arch);
  EXPECT_EQ(loaded.ckpt.config.num_classes, 10);
  EXPECT_DOUBLE_EQ(loaded.ckpt.config.width, 0.125);
  EXPECT_DOUBLE_EQ(loaded.ckpt.tau, 0.123);

  const Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  const CompositeOutput a = net.forward(x, false);
  const CompositeOutput b = loaded.net.forward(x, false);
  EXPECT_EQ(max_abs_diff(a.main_logits, b.main_logits), 0.0f);
  EXPECT_EQ(max_abs_diff(a.binary_logits, b.binary_logits), 0.0f);
}

TEST(Checkpoint, CorruptBytesThrow) {
  Rng rng(21);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  CompositeNetwork net = CompositeNetwork::build(cfg, rng);
  auto bytes =
      save_composite(net, Checkpoint{cfg, models::default_branch(cfg.arch),
                                     0.05});
  bytes[1] ^= 0xFF;
  EXPECT_THROW(load_composite(bytes), ParseError);

  auto truncated = save_composite(
      net, Checkpoint{cfg, models::default_branch(cfg.arch), 0.05});
  truncated.resize(truncated.size() / 3);
  EXPECT_THROW(load_composite(truncated), ParseError);
}

TEST(Inference, RejectsBatchInput) {
  Rng rng(10);
  CompositeNetwork net = tiny_composite(rng);
  EXPECT_THROW(
      collaborative_infer(net, ExitPolicy{0.5}, Tensor{Shape{2, 1, 28, 28}}),
      Error);
}

}  // namespace
}  // namespace lcrs::core
