// Behavioural tests of the nn layers (shapes, semantics, caching rules).
// Gradient correctness is covered separately in test_gradcheck.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/model_io.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"

namespace lcrs::nn {
namespace {

// Bit pattern of a float, so NaN and the sign of zero compare exactly.
std::uint32_t bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

void expect_bit_equal(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << "index " << i << ": got " << got[i] << " want " << want[i];
  }
}

void expect_backward_needs_forward(Layer& layer, const Tensor& grad) {
  try {
    (void)layer.backward(grad);
    ADD_FAILURE() << layer.kind() << " backward without forward did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("without cached forward"),
              std::string::npos)
        << layer.kind() << ": " << e.what();
  }
}

// An odd-sized [2, 3, 7, 9] batch carrying NaN, +-0 and +-inf, with one
// 3x3 corner of plane 1 holding only NaN and -inf.
Tensor special_input() {
  Rng rng(11);
  Tensor x = Tensor::randn(Shape{2, 3, 7, 9}, rng, 0.0f, 2.0f);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, 0.0f, -0.0f, inf, -inf, 1.0f, -1.0f};
  for (std::int64_t i = 0; i < 20; ++i) {
    x[i * 17 + 3] = specials[i % 7];
  }
  for (std::int64_t y = 0; y < 3; ++y) {
    for (std::int64_t xx = 0; xx < 3; ++xx) {
      x.at4(0, 1, y, xx) = (y + xx) % 2 == 0 ? nan : -inf;
    }
  }
  return x;
}

// Plain pooling loops indexed through at4: the references the
// eval forwards must reproduce bit for bit.
Tensor reference_max_pool(const Tensor& x, std::int64_t k, std::int64_t s) {
  const std::int64_t oh = (x.dim(2) - k) / s + 1, ow = (x.dim(3) - k) / s + 1;
  Tensor out{Shape{x.dim(0), x.dim(1), oh, ow}};
  for (std::int64_t b = 0; b < x.dim(0); ++b) {
    for (std::int64_t c = 0; c < x.dim(1); ++c) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const float v = x.at4(b, c, y * s + ky, xx * s + kx);
              if (v > best) best = v;
            }
          }
          out.at4(b, c, y, xx) = best;
        }
      }
    }
  }
  return out;
}

Tensor reference_avg_pool(const Tensor& x, std::int64_t k, std::int64_t s) {
  const std::int64_t oh = (x.dim(2) - k) / s + 1, ow = (x.dim(3) - k) / s + 1;
  const float inv = 1.0f / static_cast<float>(k * k);
  Tensor out{Shape{x.dim(0), x.dim(1), oh, ow}};
  for (std::int64_t b = 0; b < x.dim(0); ++b) {
    for (std::int64_t c = 0; c < x.dim(1); ++c) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          float acc = 0.0f;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              acc += x.at4(b, c, y * s + ky, xx * s + kx);
            }
          }
          out.at4(b, c, y, xx) = acc * inv;
        }
      }
    }
  }
  return out;
}

TEST(Conv2d, OutputShapeAndBias) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, 16, 16, rng);
  const Tensor x = Tensor::randn(Shape{2, 3, 16, 16}, rng);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 16, 16}));
  EXPECT_EQ(conv.param_count(), 8 * 3 * 9 + 8);
  EXPECT_EQ(conv.flops_per_sample(), 2 * 8 * 27 * 256 + 8 * 256);
}

TEST(Conv2d, BiasShiftsOutput) {
  Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, 4, 4, rng);
  conv.weight().value.fill(0.0f);
  conv.bias_param().value[0] = 3.5f;
  const Tensor y = conv.forward(Tensor{Shape{1, 1, 4, 4}}, false);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 3.5f);
}

TEST(Conv2d, WrongInputShapeThrows) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, 16, 16, rng);
  EXPECT_THROW(conv.forward(Tensor{Shape{1, 3, 8, 8}}, false), Error);
  EXPECT_THROW(conv.forward(Tensor{Shape{3, 16, 16}}, false), Error);
}

TEST(Conv2d, BackwardWithoutForwardThrows) {
  Rng rng(1);
  Conv2d conv(1, 2, 3, 1, 1, 8, 8, rng);
  EXPECT_THROW(conv.backward(Tensor{Shape{1, 2, 8, 8}}), Error);
}

// A fresh layer's cached tensors are empty (numel 0), so each guard fires
// with its own message instead of a later shape error.
TEST(Layers, BackwardWithoutCachedForwardNamesTheCause) {
  Rng rng(1);
  Linear lin(3, 2, rng);
  expect_backward_needs_forward(lin, Tensor{Shape{1, 2}});
  BatchNorm bn(2);
  expect_backward_needs_forward(bn, Tensor{Shape{1, 2, 4, 4}});
  Conv2d conv(1, 2, 3, 1, 1, 8, 8, rng);
  expect_backward_needs_forward(conv, Tensor{Shape{1, 2, 8, 8}});
  ResidualBlock block(2, 2, 1, 4, 4, rng);
  expect_backward_needs_forward(block, Tensor{Shape{1, 2, 4, 4}});
}

TEST(Linear, MatchesManualAffine) {
  Rng rng(2);
  Linear lin(3, 2, rng);
  lin.weight().value.fill(0.0f);
  lin.weight().value.at2(0, 1) = 2.0f;  // y0 = 2 * x1
  lin.bias_param().value[1] = -1.0f;    // y1 = -1
  Tensor x{Shape{1, 3}};
  x[1] = 4.0f;
  const Tensor y = lin.forward(x, false);
  EXPECT_EQ(y.at2(0, 0), 8.0f);
  EXPECT_EQ(y.at2(0, 1), -1.0f);
}

TEST(Linear, GradientAllocatedOnFirstBackwardAndAccumulates) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  const Tensor x = Tensor::randn(Shape{4, 3}, rng);
  (void)lin.forward(x, false);
  EXPECT_EQ(lin.weight().grad().numel(), 0);
  EXPECT_EQ(lin.bias_param().grad().numel(), 0);

  const Tensor g = Tensor::randn(Shape{4, 2}, rng);
  (void)lin.forward(x, true);
  (void)lin.backward(g);
  const Tensor once = lin.weight().grad();
  ASSERT_EQ(once.shape(), lin.weight().value.shape());
  EXPECT_EQ(lin.bias_param().grad().shape(), lin.bias_param().value.shape());

  // The lazily allocated buffer starts at zero, exactly like zero_grad().
  lin.zero_grad();
  (void)lin.backward(g);
  expect_bit_equal(lin.weight().grad(), once);
  (void)lin.backward(g);
  EXPECT_LT(max_abs_diff(lin.weight().grad(), add(once, once)), 1e-5f);
}

TEST(Activations, ReLUClampsNegatives) {
  ReLU relu;
  Tensor x{Shape{4}};
  x[0] = -2.0f; x[1] = 0.0f; x[2] = 3.0f; x[3] = -0.1f;
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 3.0f);
  Tensor g = Tensor::ones(Shape{4});
  const Tensor gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[2], 1.0f);
}

TEST(Activations, HardTanhClampsAndGates) {
  HardTanh ht;
  Tensor x{Shape{3}};
  x[0] = -5.0f; x[1] = 0.5f; x[2] = 2.0f;
  const Tensor y = ht.forward(x, true);
  EXPECT_EQ(y[0], -1.0f);
  EXPECT_EQ(y[1], 0.5f);
  EXPECT_EQ(y[2], 1.0f);
  const Tensor gx = ht.backward(Tensor::ones(Shape{3}));
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 1.0f);
  EXPECT_EQ(gx[2], 0.0f);
}

TEST(MaxPool, PicksWindowMaxAndRoutesGradient) {
  MaxPool2d pool(2, 2);
  Tensor x{Shape{1, 1, 2, 2}};
  x[0] = 1.0f; x[1] = 5.0f; x[2] = 2.0f; x[3] = 3.0f;
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y[0], 5.0f);
  Tensor g{Shape{1, 1, 1, 1}};
  g[0] = 7.0f;
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[1], 7.0f);
  EXPECT_EQ(gx[0], 0.0f);
}

TEST(EvalForwards, ReLUMatchesReferenceBitForBit) {
  const Tensor x = special_input();
  Tensor want(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    want[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  ReLU relu;
  expect_bit_equal(relu.forward(x, false), want);
  expect_bit_equal(relu.forward(x, true), want);
}

TEST(EvalForwards, HardTanhMatchesReferenceBitForBit) {
  const Tensor x = special_input();
  Tensor want(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    want[i] = x[i] > 1.0f ? 1.0f : (x[i] < -1.0f ? -1.0f : x[i]);
  }
  HardTanh ht;
  expect_bit_equal(ht.forward(x, false), want);
  expect_bit_equal(ht.forward(x, true), want);
}

TEST(EvalForwards, PoolsMatchReferenceBitForBit) {
  const Tensor x = special_input();
  for (const auto& [k, s] : {std::pair<std::int64_t, std::int64_t>{2, 2},
                            {3, 2}, {3, 1}, {7, 3}}) {
    SCOPED_TRACE("kernel " + std::to_string(k) + " stride " +
                 std::to_string(s));
    MaxPool2d max_pool(k, s);
    const Tensor want_max = reference_max_pool(x, k, s);
    expect_bit_equal(max_pool.forward(x, false), want_max);
    expect_bit_equal(max_pool.forward(x, true), want_max);
    AvgPool2d avg_pool(k, s);
    expect_bit_equal(avg_pool.forward(x, false), reference_avg_pool(x, k, s));
  }
  // The all-NaN/-inf corner window pools to -inf: NaN never wins.
  MaxPool2d pool(3, 2);
  EXPECT_EQ(pool.forward(x, false).at4(0, 1, 0, 0),
            -std::numeric_limits<float>::infinity());
}

TEST(MaxPool, TrainArgmaxRoutesGradientToFirstWindowMax) {
  // Values on a coarse grid so windows hold ties; the first maximum in
  // row-major window order takes the gradient.
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{2, 3, 7, 9}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::round(x[i]);
  const std::int64_t k = 3, s = 2;
  MaxPool2d pool(k, s);
  const Tensor y = pool.forward(x, true);
  expect_bit_equal(y, pool.forward(x, false));
  Tensor g(y.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    g[i] = static_cast<float>(i + 1);
  }
  Tensor want(x.shape());
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t c = 0; c < 3; ++c) {
      for (std::int64_t oy = 0; oy < y.dim(2); ++oy) {
        for (std::int64_t ox = 0; ox < y.dim(3); ++ox) {
          std::int64_t by = oy * s, bx = ox * s;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              if (x.at4(b, c, oy * s + ky, ox * s + kx) > x.at4(b, c, by, bx)) {
                by = oy * s + ky;
                bx = ox * s + kx;
              }
            }
          }
          want.at4(b, c, by, bx) += g.at4(b, c, oy, ox);
        }
      }
    }
  }
  expect_bit_equal(pool.backward(g), want);
}

TEST(AvgPool, AveragesWindow) {
  AvgPool2d pool(2, 2);
  Tensor x{Shape{1, 1, 2, 2}};
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f; x[3] = 6.0f;
  EXPECT_EQ(pool.forward(x, false)[0], 3.0f);
}

TEST(GlobalAvgPool, CollapsesSpatialDims) {
  GlobalAvgPool gap;
  Tensor x{Shape{1, 2, 2, 2}};
  for (std::int64_t i = 0; i < 4; ++i) x[i] = 2.0f;       // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x[i] = 4.0f;       // channel 1
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_EQ(y.at2(0, 0), 2.0f);
  EXPECT_EQ(y.at2(0, 1), 4.0f);
  const Tensor gx = gap.backward(Tensor::ones(Shape{1, 2}));
  EXPECT_EQ(gx[0], 0.25f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten fl;
  const Tensor x = Tensor::ones(Shape{2, 3, 4, 4});
  const Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  EXPECT_EQ(fl.backward(y).shape(), x.shape());
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  Rng rng(3);
  BatchNorm bn(4);
  const Tensor x = Tensor::randn(Shape{16, 4, 5, 5}, rng, 3.0f, 2.0f);
  const Tensor y = bn.forward(x, true);
  // Per-channel output should be ~N(0,1) since gamma=1, beta=0.
  const std::int64_t spatial = 25;
  for (std::int64_t c = 0; c < 4; ++c) {
    double m = 0.0, v = 0.0;
    for (std::int64_t b = 0; b < 16; ++b) {
      for (std::int64_t i = 0; i < spatial; ++i) {
        m += static_cast<double>(y[(b * 4 + c) * spatial + i]);
      }
    }
    m /= 16.0 * static_cast<double>(spatial);
    for (std::int64_t b = 0; b < 16; ++b) {
      for (std::int64_t i = 0; i < spatial; ++i) {
        const double d =
            static_cast<double>(y[(b * 4 + c) * spatial + i]) - m;
        v += d * d;
      }
    }
    v /= 16.0 * spatial;
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(v, 1.0, 1e-2);
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  Rng rng(4);
  BatchNorm bn(2);
  // Train a few batches so running stats move toward (5, ~1).
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::randn(Shape{8, 2, 3, 3}, rng, 5.0f, 1.0f);
    bn.forward(x, true);
  }
  const Tensor probe = Tensor::full(Shape{1, 2, 3, 3}, 5.0f);
  const Tensor y = bn.forward(probe, false);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.0f, 0.2f);
}

TEST(BatchNorm, AcceptsRank2Input) {
  Rng rng(5);
  BatchNorm bn(8);
  const Tensor x = Tensor::randn(Shape{16, 8}, rng);
  EXPECT_EQ(bn.forward(x, true).shape(), x.shape());
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(6);
  Dropout drop(0.5f, rng);
  const Tensor x = Tensor::randn(Shape{100}, rng);
  EXPECT_EQ(max_abs_diff(drop.forward(x, false), x), 0.0f);
}

TEST(Dropout, TrainDropsAndRescales) {
  Rng rng(7);
  Dropout drop(0.5f, rng);
  const Tensor x = Tensor::ones(Shape{10000});
  const Tensor y = drop.forward(x, true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // survivors scaled by 1/(1-p)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.05);
}

TEST(Dropout, InvalidProbabilityThrows) {
  Rng rng(8);
  EXPECT_THROW(Dropout(1.0f, rng), Error);
  EXPECT_THROW(Dropout(-0.1f, rng), Error);
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(9);
  Sequential seq;
  seq.emplace<Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Flatten>();
  seq.emplace<Linear>(4 * 64, 10, rng);
  const Tensor y = seq.forward(Tensor::randn(Shape{2, 1, 8, 8}, rng), false);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  EXPECT_EQ(seq.params().size(), 4u);  // conv w+b, linear w+b
  EXPECT_GT(seq.flops_per_sample(), 0);
}

TEST(Sequential, PrefixSuffixComposition) {
  Rng rng(10);
  Sequential seq;
  seq.emplace<Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Flatten>();
  seq.emplace<Linear>(4 * 64, 10, rng);
  const Tensor x = Tensor::randn(Shape{1, 1, 8, 8}, rng);
  const Tensor whole = seq.forward(x, false);
  const Tensor mid = seq.forward_prefix(x, 2);
  const Tensor stitched = seq.forward_suffix(mid, 2);
  EXPECT_LT(max_abs_diff(whole, stitched), 1e-5f);
}

TEST(Residual, ShapePreservingAndDownsampling) {
  Rng rng(11);
  ResidualBlock same(8, 8, 1, 16, 16, rng);
  const Tensor x = Tensor::randn(Shape{2, 8, 16, 16}, rng);
  EXPECT_EQ(same.forward(x, false).shape(), x.shape());

  ResidualBlock down(8, 16, 2, 16, 16, rng);
  EXPECT_EQ(down.forward(x, false).shape(), (Shape{2, 16, 8, 8}));
  EXPECT_GT(down.params().size(), same.params().size());
}

TEST(ModelIo, SaveLoadRoundTrip) {
  Rng rng(12);
  Sequential a;
  a.emplace<Conv2d>(1, 4, 3, 1, 1, 8, 8, rng);
  a.emplace<Flatten>();
  a.emplace<Linear>(4 * 64, 5, rng);
  Rng rng2(99);
  Sequential b;
  b.emplace<Conv2d>(1, 4, 3, 1, 1, 8, 8, rng2);
  b.emplace<Flatten>();
  b.emplace<Linear>(4 * 64, 5, rng2);

  const auto bytes = save_params(a);
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()),
            serialized_param_bytes(a));
  load_params(b, bytes);

  const Tensor x = Tensor::randn(Shape{1, 1, 8, 8}, rng);
  EXPECT_EQ(max_abs_diff(a.forward(x, false), b.forward(x, false)), 0.0f);
}

TEST(ModelIo, MismatchedModelThrows) {
  Rng rng(13);
  Sequential a;
  a.emplace<Linear>(4, 2, rng);
  Sequential b;
  b.emplace<Linear>(4, 3, rng);
  EXPECT_THROW(load_params(b, save_params(a)), ParseError);
}

}  // namespace
}  // namespace lcrs::nn
