// Numerical gradient checks: for every differentiable layer, the analytic
// backward pass must match central finite differences of the scalar loss
// sum(w . forward(x)) for random probe weights w.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "common/numerics.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace lcrs::nn {
namespace {

// The whole suite runs with the numerics sanitizer active: every forward
// and backward probed here must stay finite, and a regression that breeds
// NaNs now fails with layer attribution instead of a tolerance miss.
[[maybe_unused]] const bool kNumericsOn =
    (numerics::set_enabled(true), true);

double probe_loss(Layer& layer, const Tensor& x, const Tensor& w) {
  const Tensor y = layer.forward(x, /*train=*/true);
  double loss = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    loss += static_cast<double>(w[i]) * static_cast<double>(y[i]);
  }
  return loss;
}

/// Checks d loss / d input and d loss / d params against finite
/// differences. `tol` is the relative tolerance per element.
void check_gradients(Layer& layer, Tensor x, const Shape& out_shape,
                     double tol = 2e-2, double eps = 1e-3) {
  Rng rng(0xBEEF);
  const Tensor w = Tensor::randn(out_shape, rng);

  layer.zero_grad();
  const Tensor y = layer.forward(x, true);
  ASSERT_EQ(y.shape(), out_shape);
  const Tensor grad_x = layer.backward(w);
  ASSERT_EQ(grad_x.shape(), x.shape());

  auto expect_matches = [&](double analytic, double numeric,
                            const std::string& what) {
    const double scale = std::max({1.0, std::fabs(analytic),
                                   std::fabs(numeric)});
    EXPECT_NEAR(analytic, numeric, tol * scale) << what;
  };

  // Input gradient: probe a deterministic subset of coordinates.
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 24);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const double up = probe_loss(layer, x, w);
    x[i] = orig - static_cast<float>(eps);
    const double down = probe_loss(layer, x, w);
    x[i] = orig;
    expect_matches(grad_x[i], (up - down) / (2 * eps),
                   "input grad at " + std::to_string(i));
  }

  // Parameter gradients (analytic grads were accumulated above; numeric
  // probes re-run the forward with a nudged parameter).
  layer.zero_grad();
  layer.forward(x, true);
  layer.backward(w);
  for (Param* p : layer.params()) {
    const std::int64_t pstride = std::max<std::int64_t>(1, p->numel() / 16);
    for (std::int64_t i = 0; i < p->numel(); i += pstride) {
      const float orig = p->value[i];
      p->value[i] = orig + static_cast<float>(eps);
      const double up = probe_loss(layer, x, w);
      p->value[i] = orig - static_cast<float>(eps);
      const double down = probe_loss(layer, x, w);
      p->value[i] = orig;
      expect_matches(p->grad()[i], (up - down) / (2 * eps),
                     p->name + " grad at " + std::to_string(i));
    }
  }
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear lin(6, 4, rng);
  check_gradients(lin, Tensor::randn(Shape{3, 6}, rng), Shape{3, 4});
}

TEST(GradCheck, LinearNoBias) {
  Rng rng(2);
  Linear lin(5, 3, rng, /*bias=*/false);
  check_gradients(lin, Tensor::randn(Shape{2, 5}, rng), Shape{2, 3});
}

struct ConvParam {
  std::int64_t in_c, out_c, kernel, stride, pad, hw;
};

class ConvGrad : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvGrad, MatchesFiniteDifferences) {
  const ConvParam p = GetParam();
  Rng rng(3);
  Conv2d conv(p.in_c, p.out_c, p.kernel, p.stride, p.pad, p.hw, p.hw, rng);
  const std::int64_t oh = conv.geometry().out_h();
  check_gradients(conv,
                  Tensor::randn(Shape{2, p.in_c, p.hw, p.hw}, rng),
                  Shape{2, p.out_c, oh, oh});
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGrad,
    ::testing::Values(ConvParam{1, 2, 3, 1, 1, 6}, ConvParam{2, 3, 3, 1, 0, 7},
                      ConvParam{3, 2, 5, 1, 2, 8}, ConvParam{2, 4, 3, 2, 1, 8},
                      ConvParam{1, 1, 1, 1, 0, 5}));

TEST(GradCheck, ReLU) {
  Rng rng(4);
  ReLU relu;
  // Offset inputs away from the kink at 0 for a clean finite difference.
  Tensor x = Tensor::randn(Shape{3, 7}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.1f;
  }
  check_gradients(relu, x, Shape{3, 7});
}

TEST(GradCheck, Tanh) {
  Rng rng(5);
  Tanh tanh_layer;
  check_gradients(tanh_layer, Tensor::randn(Shape{4, 5}, rng), Shape{4, 5});
}

TEST(GradCheck, HardTanh) {
  Rng rng(6);
  HardTanh ht;
  Tensor x = Tensor::randn(Shape{3, 6}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(std::fabs(x[i]) - 1.0f) < 0.05f) x[i] = 0.5f;  // off kinks
  }
  check_gradients(ht, x, Shape{3, 6});
}

TEST(GradCheck, MaxPool) {
  Rng rng(7);
  MaxPool2d pool(2, 2);
  check_gradients(pool, Tensor::randn(Shape{2, 3, 6, 6}, rng),
                  Shape{2, 3, 3, 3});
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(9);
  GlobalAvgPool gap;
  check_gradients(gap, Tensor::randn(Shape{2, 4, 3, 3}, rng), Shape{2, 4});
}

TEST(GradCheck, BatchNorm4d) {
  Rng rng(10);
  BatchNorm bn(3);
  check_gradients(bn, Tensor::randn(Shape{4, 3, 4, 4}, rng),
                  Shape{4, 3, 4, 4}, /*tol=*/4e-2);
}

TEST(GradCheck, BatchNorm2d) {
  Rng rng(11);
  BatchNorm bn(6);
  check_gradients(bn, Tensor::randn(Shape{8, 6}, rng), Shape{8, 6},
                  /*tol=*/4e-2);
}

TEST(GradCheck, ResidualBlockIdentity) {
  Rng rng(12);
  ResidualBlock block(4, 4, 1, 6, 6, rng);
  check_gradients(block, Tensor::randn(Shape{2, 4, 6, 6}, rng),
                  Shape{2, 4, 6, 6}, /*tol=*/6e-2);
}

TEST(GradCheck, ResidualBlockDownsample) {
  Rng rng(13);
  ResidualBlock block(3, 6, 2, 8, 8, rng);
  check_gradients(block, Tensor::randn(Shape{2, 3, 8, 8}, rng),
                  Shape{2, 6, 4, 4}, /*tol=*/6e-2);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(14);
  Sequential seq;
  seq.emplace<Conv2d>(2, 3, 3, 1, 1, 6, 6, rng);
  seq.emplace<Tanh>();
  seq.emplace<Flatten>();
  seq.emplace<Linear>(3 * 36, 4, rng);
  check_gradients(seq, Tensor::randn(Shape{2, 2, 6, 6}, rng), Shape{2, 4},
                  /*tol=*/4e-2);
}

}  // namespace
}  // namespace lcrs::nn
