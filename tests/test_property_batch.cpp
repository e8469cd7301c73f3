// Property / differential sweeps behind the batched serving path.
//
// The edge batcher's correctness claim is "batch=k is bit-for-bit
// batch=1, k times". This suite earns that claim from the bottom up
// with seeded randomized sweeps:
//
//   * xnor kernels: xnor_conv2d / xnor_linear on pack_filters(weight) vs
//     the layers' float-sign forward across random geometries, at every
//     SIMD level -- exactly equal, not almost.
//   * row independence: forward(batch)[i] == forward(row_i) for binary
//     layers, the prepared Linear, Conv2d, the full main branch
//     (unprepared and prepared), and complete_main_batch.
//   * stack_outer/slice_outer are exact inverses, so the server's
//     stack -> forward -> slice round trip cannot perturb a value.
//
// Seeds are fixed; any failure replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "binary/binary_conv2d.h"
#include "binary/binary_linear.h"
#include "binary/xnor_gemm.h"
#include "common/simd.h"
#include "common/simd_math.h"
#include "core/inference.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/tensor_ops.h"

namespace lcrs {
namespace {

// Every SIMD level the running host can execute, scalar first.
std::vector<simd::Level> testable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level l :
       {simd::Level::kSse, simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::level_available(l)) levels.push_back(l);
  }
  return levels;
}

TEST(PropertyXnor, Conv2dXnorKernelMatchesReferenceAcrossRandomShapes) {
  Rng rng(11001);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t in_c = rng.randint(1, 4);
    const std::int64_t out_c = rng.randint(1, 6);
    const std::int64_t kernel = rng.randint(1, 4);
    const std::int64_t stride = rng.randint(1, 2);
    const std::int64_t pad = rng.randint(0, 2);
    // Keep the padded input at least one kernel wide so the geometry is
    // valid for every sampled (kernel, stride, pad).
    const std::int64_t h = kernel + rng.randint(1, 8);
    const std::int64_t w = kernel + rng.randint(1, 8);
    const std::int64_t n = rng.randint(1, 3);

    binary::BinaryConv2d conv(in_c, out_c, kernel, stride, pad, h, w, rng);
    const Tensor x = Tensor::randn(Shape{n, in_c, h, w}, rng);
    const binary::PackedFilters packed =
        binary::pack_filters(conv.weight().value);
    for (const simd::Level level : testable_levels()) {
      simd::ScopedForcedLevel force(level);
      const Tensor reference = conv.forward(x, /*train=*/false);
      const Tensor fast =
          binary::xnor_conv2d(x, conv.geometry(), packed.bits, packed.alpha);
      ASSERT_TRUE(reference.same_shape(fast)) << "trial " << trial;
      EXPECT_EQ(max_abs_diff(reference, fast), 0.0f)
          << simd::level_name(level) << " trial " << trial
          << ": xnor conv diverged from reference at geometry in_c=" << in_c
          << " out_c=" << out_c << " k=" << kernel << " s=" << stride
          << " p=" << pad << " h=" << h << " w=" << w << " n=" << n;
    }
  }
}

TEST(PropertyXnor, LinearXnorKernelMatchesReferenceAcrossRandomShapes) {
  Rng rng(11002);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t in = rng.randint(1, 96);
    const std::int64_t out = rng.randint(1, 32);
    const std::int64_t n = rng.randint(1, 5);
    const bool bias = rng.bernoulli(0.5);
    binary::BinaryLinear fc(in, out, rng, bias);
    const Tensor x = Tensor::randn(Shape{n, in}, rng);
    const binary::PackedFilters packed =
        binary::pack_filters(fc.weight().value);
    for (const simd::Level level : testable_levels()) {
      simd::ScopedForcedLevel force(level);
      const Tensor reference = fc.forward(x, /*train=*/false);
      const Tensor fast = binary::xnor_linear(
          x, packed.bits, packed.alpha, bias ? &fc.bias_values() : nullptr);
      ASSERT_TRUE(reference.same_shape(fast)) << "trial " << trial;
      EXPECT_EQ(max_abs_diff(reference, fast), 0.0f)
          << simd::level_name(level) << " trial " << trial << ": in=" << in
          << " out=" << out << " n=" << n << " bias=" << bias;
    }
  }
}

TEST(PropertyBatch, BinaryLayersAreRowIndependent) {
  // forward(batch)[i] must be bit-identical to forward(row_i): the
  // per-sample scaling factors (K map, beta) may not leak across rows.
  Rng rng(11003);
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t k = rng.randint(2, 5);
    binary::BinaryConv2d conv(2, 4, 3, 1, 1, 10, 10, rng);
    const Tensor batch = Tensor::randn(Shape{k, 2, 10, 10}, rng);
    const Tensor full = conv.forward(batch, false);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor row = conv.forward(batch.slice_outer(i, i + 1), false);
      EXPECT_EQ(max_abs_diff(full.slice_outer(i, i + 1), row), 0.0f)
          << "conv trial " << trial << " row " << i;
    }

    binary::BinaryLinear fc(24, 7, rng);
    const Tensor fbatch = Tensor::randn(Shape{k, 24}, rng);
    const Tensor ffull = fc.forward(fbatch, false);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor row = fc.forward(fbatch.slice_outer(i, i + 1), false);
      EXPECT_EQ(max_abs_diff(ffull.slice_outer(i, i + 1), row), 0.0f)
          << "fc trial " << trial << " row " << i;
    }
  }
}

TEST(PropertyBatch, StackOuterIsInverseOfSliceOuter) {
  Rng rng(11004);
  for (int trial = 0; trial < 8; ++trial) {
    const std::int64_t n = rng.randint(1, 6);
    const std::int64_t c = rng.randint(1, 4);
    const std::int64_t h = rng.randint(1, 7);
    const Tensor whole = Tensor::randn(Shape{n, c, h, h}, rng);
    std::vector<Tensor> rows;
    for (std::int64_t i = 0; i < n; ++i) {
      rows.push_back(whole.slice_outer(i, i + 1));
    }
    const Tensor back = stack_outer(rows);
    ASSERT_TRUE(back.same_shape(whole)) << "trial " << trial;
    EXPECT_EQ(max_abs_diff(back, whole), 0.0f) << "trial " << trial;
  }
  // Mixed outer sizes concatenate; mismatched inner dims are rejected.
  Tensor a = Tensor::ones(Shape{2, 3});
  Tensor b = Tensor::ones(Shape{1, 3});
  EXPECT_EQ(stack_outer({a, b}).dim(0), 3);
  EXPECT_THROW(stack_outer({}), Error);
  EXPECT_THROW(stack_outer({a, Tensor::ones(Shape{1, 4})}), Error);
  EXPECT_THROW(stack_outer({a, Tensor::ones(Shape{1, 3, 1})}), Error);
}

core::CompositeNetwork make_net(Rng& rng) {
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  return core::CompositeNetwork::build(cfg, rng);
}

TEST(PropertyBatch, MainBranchBatchForwardIsRowIndependent) {
  // The exact property the edge batcher stands on: one [k,...] forward
  // of the main rest equals k separate [1,...] forwards, bitwise. Checked
  // unprepared and then after the serving preparation the edge server
  // applies (cached Linear transposes), whose Linear layers switch
  // between the small-batch and the tiled GEMM across these batch sizes.
  Rng rng(11005);
  core::CompositeNetwork net = make_net(rng);
  for (const bool prepared : {false, true}) {
    if (prepared) net.prepare_edge_inference();
    for (const std::int64_t k : {2, 3, 5, 8}) {
      const Tensor inputs = Tensor::randn(Shape{k, 1, 28, 28}, rng);
      const Tensor shared_batch = net.shared_stage().forward(inputs, false);
      const Tensor full = net.forward_main_from_shared(shared_batch);
      for (std::int64_t i = 0; i < k; ++i) {
        const Tensor row =
            net.forward_main_from_shared(shared_batch.slice_outer(i, i + 1));
        EXPECT_EQ(max_abs_diff(full.slice_outer(i, i + 1), row), 0.0f)
            << "prepared=" << prepared << " k=" << k << " row " << i;
      }
    }
  }
}

TEST(PropertyBatch, CompleteMainBatchMatchesPerSamplePath) {
  Rng rng(11006);
  core::CompositeNetwork net = make_net(rng);
  for (const std::int64_t k : {1, 2, 4}) {
    const Tensor inputs = Tensor::randn(Shape{k, 1, 28, 28}, rng);
    // Stack per-sample conv1 outputs exactly the way the server does.
    std::vector<Tensor> parts;
    for (std::int64_t i = 0; i < k; ++i) {
      parts.push_back(
          net.shared_stage().forward(inputs.slice_outer(i, i + 1), false));
    }
    const core::MainBatchCompletion batched =
        core::complete_main_batch(net, stack_outer(parts));
    ASSERT_EQ(batched.labels.size(), static_cast<std::size_t>(k));
    ASSERT_EQ(batched.probabilities.dim(0), k);
    for (std::int64_t i = 0; i < k; ++i) {
      const Tensor solo = softmax_rows(net.forward_main_from_shared(
          parts[static_cast<std::size_t>(i)]));
      EXPECT_EQ(batched.labels[static_cast<std::size_t>(i)], argmax(solo))
          << "k=" << k << " row " << i;
      EXPECT_EQ(
          max_abs_diff(batched.probabilities.slice_outer(i, i + 1), solo),
          0.0f)
          << "k=" << k << " row " << i;
    }
  }
  EXPECT_THROW(core::complete_main_batch(net, Tensor::ones(Shape{1, 2})),
               Error);
}

// --- Prepared Linear serving path ---

TEST(PropertyBatch, PreparedLinearBatchRowsMatchSingleSampleExactly) {
  // The prepared eval forward runs gemm over the cached W^T: at AVX2,
  // batches below 4 take the small-batch streaming path, larger ones the
  // tiled kernel. Either way batch row i must be
  // bit-identical to sample i served alone, at every dispatch level.
  // out % 8 != 0 and in % 8 != 0 reach the ragged column tail and the
  // single-row k remainder; ReLU-like inputs reach the zero skip.
  Rng rng(11013);
  const std::int64_t max_batch = 9;
  for (const bool bias : {true, false}) {
    nn::Linear fc(203, 141, rng, bias);
    fc.prepare_inference();
    ASSERT_TRUE(fc.inference_prepared());
    Tensor x = Tensor::randn(Shape{max_batch, 203}, rng);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(x[i], 0.0f);
    for (const simd::Level level : testable_levels()) {
      simd::ScopedForcedLevel force(level);
      std::vector<Tensor> solo;
      for (std::int64_t i = 0; i < max_batch; ++i) {
        solo.push_back(fc.forward(x.slice_outer(i, i + 1), false));
      }
      for (std::int64_t n = 1; n <= max_batch; ++n) {
        const Tensor batched = fc.forward(x.slice_outer(0, n), false);
        for (std::int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(max_abs_diff(batched.slice_outer(i, i + 1),
                                 solo[static_cast<std::size_t>(i)]),
                    0.0f)
              << simd::level_name(level) << " bias=" << bias
              << " batch " << n << " row " << i;
        }
      }
    }
  }
}

// --- Conv2d (shared float conv kernel) ---

TEST(PropertyBatch, ConvBatchRowsMatchSingleSampleExactly) {
  // Conv2d::forward runs one gemm per sample, so batch row i must be
  // BIT-identical to serving sample i alone, at every dispatch level.
  // out_c < 4 with at least 32 output pixels crosses gemm's AVX2
  // small-batch path; out_c >= 4 the tiled kernel with ragged rows.
  struct Geom {
    std::int64_t in_c, out_c, kernel, stride, pad, h, w;
  };
  std::vector<Geom> geoms{{1, 1, 3, 1, 1, 8, 8},   {3, 3, 5, 1, 2, 12, 12},
                          {2, 2, 3, 2, 0, 9, 9},   {4, 7, 3, 1, 0, 10, 10},
                          {2, 16, 1, 1, 0, 6, 6}};
  Rng rng(11007);
  for (int trial = 0; trial < 6; ++trial) {
    const std::int64_t kernel = rng.randint(1, 4);
    geoms.push_back({rng.randint(1, 4), rng.randint(1, 7), kernel,
                     rng.randint(1, 2), rng.randint(0, 2),
                     kernel + rng.randint(1, 8), kernel + rng.randint(1, 8)});
  }
  for (const Geom& g : geoms) {
    nn::Conv2d conv(g.in_c, g.out_c, g.kernel, g.stride, g.pad, g.h, g.w,
                    rng);
    conv.bias_param().value = Tensor::randn(Shape{g.out_c}, rng);
    const std::int64_t n = rng.randint(2, 6);
    const Tensor x = Tensor::randn(Shape{n, g.in_c, g.h, g.w}, rng);
    for (const simd::Level level : testable_levels()) {
      simd::ScopedForcedLevel force(level);
      const Tensor batched = conv.forward(x, /*train=*/false);
      for (std::int64_t i = 0; i < n; ++i) {
        const Tensor solo = conv.forward(x.slice_outer(i, i + 1), false);
        EXPECT_EQ(max_abs_diff(batched.slice_outer(i, i + 1), solo), 0.0f)
            << simd::level_name(level) << " in_c=" << g.in_c
            << " out_c=" << g.out_c << " k=" << g.kernel
            << " s=" << g.stride << " p=" << g.pad << " h=" << g.h
            << " w=" << g.w << " row " << i;
      }
    }
  }
}

TEST(PropertyBatch, ConvForcedScalarMatchesNativeWithinTolerance) {
  Rng rng(11009);
  nn::Conv2d conv(2, 6, 3, 1, 1, 10, 10, rng);
  const Tensor x = Tensor::randn(Shape{3, 2, 10, 10}, rng);
  const Tensor native = conv.forward(x, /*train=*/false);
  Tensor scalar;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    scalar = conv.forward(x, /*train=*/false);
  }
  const float tol =
      1e-3f * static_cast<float>(conv.geometry().patch_size());
  EXPECT_LT(max_abs_diff(native, scalar), tol);
}

// --- Dispatched tanh kernel (common/simd_math.h) ---

TEST(PropertyTanh, KernelMatchesStdTanhWithinDocumentedBound) {
  // The vector levels use a rational approximation; DESIGN.md documents
  // a 1e-6 absolute bound against std::tanh. Scalar must be exact.
  std::vector<float> xs;
  for (float v = -10.0f; v <= 10.0f; v += 0.0137f) xs.push_back(v);
  for (const float s : {0.0f, -0.0f, 1e-5f, -1e-5f, 3.9e-4f, 4.1e-4f,
                        7.905f, -7.905f, 7.906f, -7.906f, 50.0f, -50.0f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    xs.push_back(s);
  }
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    std::vector<float> got = xs;
    simd::tanh_inplace(got.data(), static_cast<std::int64_t>(got.size()));
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float want = std::tanh(xs[i]);
      if (level == simd::Level::kScalar) {
        EXPECT_EQ(got[i], want)
            << "scalar level must be exact std::tanh at x=" << xs[i];
      } else {
        EXPECT_NEAR(got[i], want, 1e-6f)
            << simd::level_name(level) << " at x=" << xs[i];
      }
    }
    // NaN propagates; signed zero is preserved bit-for-bit.
    float nan = std::numeric_limits<float>::quiet_NaN();
    simd::tanh_inplace(&nan, 1);
    EXPECT_TRUE(std::isnan(nan)) << simd::level_name(level);
    float negzero = -0.0f;
    simd::tanh_inplace(&negzero, 1);
    EXPECT_TRUE(std::signbit(negzero)) << simd::level_name(level);
  }
}

TEST(PropertyTanh, KernelIsElementwisePureAcrossRaggedLengths) {
  // The batcher changes tensor lengths, never values: an element must map
  // to the same bits whether it sits in a full vector lane, the padded
  // ragged tail, or a length-1 call. Row independence of the prepared
  // main branch stands on this purity.
  Rng rng(11012);
  const Tensor x = Tensor::randn(Shape{37}, rng);
  Tensor full = x;
  simd::tanh_inplace(full.data(), full.numel());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    float one = x[i];
    simd::tanh_inplace(&one, 1);
    EXPECT_EQ(full[i], one) << "index " << i;
  }
  for (const std::int64_t len : {1, 7, 8, 9, 31, 32, 33}) {
    std::vector<float> prefix(x.data(), x.data() + len);
    simd::tanh_inplace(prefix.data(), len);
    for (std::int64_t j = 0; j < len; ++j) {
      EXPECT_EQ(full[j], prefix[static_cast<std::size_t>(j)])
          << "len " << len << " index " << j;
    }
  }
}

}  // namespace
}  // namespace lcrs
