// Binary layer tests: the Eq. 4 reference forward, exact parity of the
// bit-packed fast path, STE-gated backward behaviour, and training
// effectiveness of the full binary stack.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "binary/binary_conv2d.h"
#include "common/numerics.h"
#include "binary/binary_linear.h"
#include "binary/binarize.h"
#include "binary/input_scale.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace lcrs::binary {
namespace {

// The STE branch runs the whole suite under the numerics sanitizer: the
// binarized forward, the gated backward, and the training loop below must
// never produce NaN/Inf, and a regression is attributed to its layer.
[[maybe_unused]] const bool kNumericsOn =
    (numerics::set_enabled(true), true);

TEST(BinaryConv, ForwardMatchesEq4Expansion) {
  // out = (sign(I) conv sign(W)) * K * alpha, checked against a manual
  // expansion on a tiny case.
  Rng rng(1);
  BinaryConv2d conv(1, 1, 3, 1, 0, 3, 3, rng);
  Tensor x = Tensor::randn(Shape{1, 1, 3, 3}, rng);
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));

  const BinarizedFilters b = binarize_filters(conv.weight().value);
  float dot = 0.0f;
  for (std::int64_t i = 0; i < 9; ++i) {
    dot += (x[i] >= 0 ? 1.0f : -1.0f) * b.sign[i];
  }
  const Tensor k = input_scale_K(x, conv.geometry());
  EXPECT_NEAR(y[0], dot * b.alpha[0] * k[0], 1e-5);
}

struct ParityCase {
  std::int64_t in_c, out_c, kernel, stride, pad, hw;
};

class BinaryConvParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(BinaryConvParity, FastPathIsBitExact) {
  const ParityCase p = GetParam();
  Rng rng(p.in_c * 100 + p.out_c);
  BinaryConv2d conv(p.in_c, p.out_c, p.kernel, p.stride, p.pad, p.hw, p.hw,
                    rng);
  const Tensor x = Tensor::randn(Shape{2, p.in_c, p.hw, p.hw}, rng);
  const Tensor ref = conv.forward(x, false);
  conv.prepare_inference();
  const Tensor fast = conv.forward_fast(x);
  // Sign dot products are small exact integers; scaling is identical
  // float math, so parity is exact.
  EXPECT_EQ(max_abs_diff(ref, fast), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BinaryConvParity,
    ::testing::Values(ParityCase{1, 4, 3, 1, 1, 8},
                      ParityCase{3, 8, 3, 1, 1, 16},
                      ParityCase{4, 6, 5, 1, 2, 12},
                      ParityCase{8, 16, 3, 2, 1, 16},
                      ParityCase{2, 3, 3, 1, 0, 9}));

TEST(BinaryConv, FastPathRequiresPreparation) {
  Rng rng(2);
  BinaryConv2d conv(1, 2, 3, 1, 1, 8, 8, rng);
  EXPECT_THROW(conv.forward_fast(Tensor{Shape{1, 1, 8, 8}}), Error);
  conv.prepare_inference();
  EXPECT_NO_THROW(conv.forward_fast(Tensor{Shape{1, 1, 8, 8}}));
}

TEST(BinaryConv, TrainingInvalidatesPackedWeights) {
  Rng rng(3);
  BinaryConv2d conv(1, 2, 3, 1, 1, 8, 8, rng);
  conv.prepare_inference();
  EXPECT_TRUE(conv.inference_ready());
  conv.forward(Tensor{Shape{1, 1, 8, 8}}, /*train=*/true);
  EXPECT_FALSE(conv.inference_ready());
}

TEST(BinaryConv, BackwardGatesInputGradBySte) {
  Rng rng(4);
  BinaryConv2d conv(1, 2, 3, 1, 1, 6, 6, rng);
  Tensor x = Tensor::randn(Shape{1, 1, 6, 6}, rng);
  x[0] = 5.0f;    // far outside |x| <= 1
  x[1] = 0.3f;    // inside the STE window
  const Tensor y = conv.forward(x, true);
  const Tensor gx = conv.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_NE(gx[1], 0.0f);
}

// A fresh layer's cached tensors are empty (numel 0), so the guard fires
// with its own message instead of a later shape error.
TEST(BinaryLayers, BackwardWithoutCachedForwardNamesTheCause) {
  Rng rng(4);
  BinaryConv2d conv(1, 2, 3, 1, 1, 6, 6, rng);
  BinaryLinear lin(3, 2, rng);
  for (const auto& [layer, grad] :
       {std::pair<nn::Layer*, Tensor>{&conv, Tensor{Shape{1, 2, 6, 6}}},
        {&lin, Tensor{Shape{1, 2}}}}) {
    try {
      (void)layer->backward(grad);
      ADD_FAILURE() << layer->kind() << " backward without forward did not "
                    << "throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("without cached forward"),
                std::string::npos)
          << layer->kind() << ": " << e.what();
    }
  }
}

TEST(BinaryConv, WeightBytesRoughly32xSmaller) {
  Rng rng(5);
  BinaryConv2d conv(64, 128, 3, 1, 1, 16, 16, rng);
  const std::int64_t float_bytes = conv.param_bytes();
  const std::int64_t bin_bytes = conv.binary_weight_bytes();
  EXPECT_GT(float_bytes, bin_bytes * 20);
  EXPECT_LT(float_bytes, bin_bytes * 40);
}

TEST(BinaryLinear, FastPathIsBitExact) {
  Rng rng(6);
  BinaryLinear lin(130, 17, rng);
  const Tensor x = Tensor::randn(Shape{4, 130}, rng);
  const Tensor ref = lin.forward(x, false);
  lin.prepare_inference();
  EXPECT_EQ(max_abs_diff(ref, lin.forward_fast(x)), 0.0f);
}

TEST(BinaryLinear, BiasStaysFullPrecision) {
  Rng rng(7);
  BinaryLinear lin(8, 4, rng);
  Tensor zero_in{Shape{1, 8}};
  zero_in.fill(0.0f);  // beta = 0 -> output is exactly the bias
  const Tensor y = lin.forward(zero_in, false);
  for (std::int64_t o = 0; o < 4; ++o) {
    EXPECT_FLOAT_EQ(y.at2(0, o), 0.0f);  // bias initialized to zero
  }
  for (nn::Param* p : lin.params()) {
    if (p->name == "binary_linear.bias") p->value.fill(1.25f);
  }
  const Tensor y2 = lin.forward(zero_in, false);
  for (std::int64_t o = 0; o < 4; ++o) EXPECT_FLOAT_EQ(y2.at2(0, o), 1.25f);
}

TEST(BinaryLinear, BackwardAccumulatesEq6WeightGrad) {
  Rng rng(8);
  BinaryLinear lin(6, 3, rng);
  const Tensor x = Tensor::randn(Shape{2, 6}, rng);
  lin.zero_grad();
  const Tensor y = lin.forward(x, true);
  lin.backward(Tensor::ones(y.shape()));
  EXPECT_GT(l2_norm(lin.weight().grad()), 0.0);
}

TEST(BinaryStack, LearnsASeparableProblem) {
  // End-to-end: a binary linear stack must be trainable via STE + Eq. 6.
  Rng rng(9);
  nn::Sequential net;
  net.emplace<BinaryLinear>(8, 32, rng);
  net.emplace<nn::BatchNorm>(32);
  net.emplace<nn::HardTanh>();
  net.emplace<nn::Linear>(32, 2, rng);

  const int n = 128;
  Tensor x{Shape{n, 8}};
  std::vector<std::int64_t> labels(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    for (int f = 0; f < 8; ++f) {
      const double centre = (cls == 0) ? 0.6 : -0.6;
      const double sgn = (f % 2 == 0) ? 1.0 : -1.0;
      x.at2(i, f) = static_cast<float>(centre * sgn + rng.normal(0, 0.3));
    }
    labels[static_cast<std::size_t>(i)] = cls;
  }

  nn::Adam adam(0.01);
  for (int step = 0; step < 120; ++step) {
    net.zero_grad();
    const Tensor logits = net.forward(x, true);
    const nn::LossResult r = nn::softmax_cross_entropy(logits, labels);
    net.backward(r.grad_logits);
    adam.step(net.params());
  }
  EXPECT_GT(nn::accuracy(net.forward(x, false), labels), 0.9);
}

TEST(BinaryConv, FlopsAccountingIsConvEquivalent) {
  Rng rng(10);
  BinaryConv2d conv(3, 8, 3, 1, 1, 16, 16, rng);
  EXPECT_EQ(conv.flops_per_sample(), 2 * 8 * 27 * 16 * 16);
}

}  // namespace
}  // namespace lcrs::binary
