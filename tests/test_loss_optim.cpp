// Loss function and optimizer tests, including small convergence runs.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"

namespace lcrs::nn {
namespace {

TEST(Loss, UniformLogitsGiveLogC) {
  const Tensor logits{Shape{2, 4}};  // all zeros -> uniform softmax
  const LossResult r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient rows sum to zero (softmax minus one-hot).
  for (std::int64_t b = 0; b < 2; ++b) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) {
      s += static_cast<double>(r.grad_logits.at2(b, c));
    }
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, ConfidentCorrectPredictionHasLowLoss) {
  Tensor logits{Shape{1, 3}};
  logits.at2(0, 1) = 20.0f;
  const LossResult r = softmax_cross_entropy(logits, {1});
  EXPECT_LT(r.loss, 1e-4);
  EXPECT_NEAR(r.probabilities.at2(0, 1), 1.0, 1e-4);
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(1);
  Tensor logits = Tensor::randn(Shape{3, 5}, rng);
  const std::vector<std::int64_t> labels{4, 0, 2};
  const LossResult r = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.numel(); i += 3) {
    const float orig = logits[i];
    logits[i] = orig + static_cast<float>(eps);
    const double up = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig - static_cast<float>(eps);
    const double down = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig;
    EXPECT_NEAR(r.grad_logits[i], (up - down) / (2 * eps), 2e-3);
  }
}

TEST(Loss, BadLabelThrows) {
  const Tensor logits{Shape{1, 3}};
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), Error);
}

TEST(Metrics, AccuracyAndTopK) {
  Tensor logits{Shape{3, 4}};
  logits.at2(0, 2) = 3.0f; logits.at2(0, 1) = 2.0f;
  logits.at2(1, 0) = 3.0f; logits.at2(1, 3) = 2.0f;
  logits.at2(2, 1) = 3.0f; logits.at2(2, 2) = 2.0f;
  const std::vector<std::int64_t> labels{2, 3, 0};
  EXPECT_NEAR(accuracy(logits, labels), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(topk_accuracy(logits, labels, 2), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(topk_accuracy(logits, labels, 4), 1.0, 1e-9);
}

/// Trains y = softmax(Wx + b) on a linearly separable toy problem.
double train_toy(Optimizer& opt, int steps) {
  Rng rng(7);
  Linear lin(2, 3, rng);
  // Three clusters at angles; label = cluster.
  const int n = 96;
  Tensor x{Shape{n, 2}};
  std::vector<std::int64_t> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 3;
    const double angle = 2.0944 * cls;  // 120 degrees apart
    x.at2(i, 0) = static_cast<float>(std::cos(angle) + rng.normal(0, 0.15));
    x.at2(i, 1) = static_cast<float>(std::sin(angle) + rng.normal(0, 0.15));
    y[static_cast<std::size_t>(i)] = cls;
  }
  for (int s = 0; s < steps; ++s) {
    lin.zero_grad();
    const Tensor logits = lin.forward(x, true);
    const LossResult r = softmax_cross_entropy(logits, y);
    lin.backward(r.grad_logits);
    opt.step(lin.params());
  }
  return accuracy(lin.forward(x, false), y);
}

TEST(Optimizer, SgdConvergesOnToyProblem) {
  Sgd sgd(0.5, 0.9);
  EXPECT_GT(train_toy(sgd, 100), 0.95);
}

TEST(Optimizer, AdamConvergesOnToyProblem) {
  Adam adam(0.05);
  EXPECT_GT(train_toy(adam, 100), 0.95);
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Rng rng(2);
  Linear lin(4, 4, rng);
  const double before = l2_norm(lin.weight().value);
  Sgd sgd(0.1, 0.0, /*weight_decay=*/0.1);
  for (int i = 0; i < 50; ++i) {
    lin.zero_grad();  // zero gradient: only decay acts
    sgd.step(lin.params());
  }
  EXPECT_LT(l2_norm(lin.weight().value), before * 0.7);
}

TEST(Optimizer, AdamStepSizeBoundedByLr) {
  Rng rng(3);
  Linear lin(2, 2, rng);
  const Tensor before = lin.weight().value;
  lin.weight().grad_buffer().fill(1000.0f);  // huge gradient
  Adam adam(0.01);
  adam.step(lin.params());
  // Adam normalizes by sqrt(v): the first step is about lr in magnitude.
  const float delta = max_abs_diff(before, lin.weight().value);
  EXPECT_LT(delta, 0.011f);
  EXPECT_GT(delta, 0.005f);
}

TEST(Optimizer, InvalidLrThrows) {
  EXPECT_THROW(Sgd(0.0), Error);
  EXPECT_THROW(Adam(-1.0), Error);
}

TEST(StepDecay, HalvesOnSchedule) {
  Sgd sgd(1.0);
  const StepDecay decay(10, 0.5);
  decay.apply(sgd, 0, 1.0);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 1.0);
  decay.apply(sgd, 10, 1.0);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.5);
  decay.apply(sgd, 25, 1.0);
  EXPECT_DOUBLE_EQ(sgd.learning_rate(), 0.25);
}

}  // namespace
}  // namespace lcrs::nn
