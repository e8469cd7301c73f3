// Kernel microbenchmarks (google-benchmark): the XNOR/popcount path vs
// full-precision GEMM and convolution -- the mechanism behind the paper's
// Sec. III-B/IV claims of faster, memory-saving binary inference.
//
// Every benchmark verifies the timed kernel's output against a
// forced-scalar reference computed up front, inside the iteration loop
// (timing paused): a wrong-but-fast kernel fails the run with
// SkipWithError instead of posting a headline number. Bit-domain kernels
// must match exactly; float kernels get the k-scaled cross-level
// tolerance documented in DESIGN.md "SIMD kernel layer".
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "binary/binary_conv2d.h"
#include "binary/bitmatrix.h"
#include "binary/xnor_gemm.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"

namespace lcrs {
namespace {

// Returns false (after flagging the run) when `got` strays from `want`
// by more than `tol`; tol = 0 demands bit-equality.
bool verify(benchmark::State& state, const float* got, const float* want,
            std::int64_t count, float tol, const char* what) {
  for (std::int64_t i = 0; i < count; ++i) {
    const float diff = std::fabs(got[i] - want[i]);
    if (!(diff <= tol)) {  // catches NaN too
      std::ostringstream msg;
      msg << what << " diverged from scalar reference at index " << i
          << ": got " << got[i] << " want " << want[i] << " (tol " << tol
          << ")";
      state.SkipWithError(msg.str().c_str());
      return false;
    }
  }
  return true;
}

void BM_FloatGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  Tensor c{Shape{n, n}};
  Tensor ref{Shape{n, n}};
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    gemm(a.data(), b.data(), ref.data(), n, n, n);
  }
  const float tol = 1e-3f * static_cast<float>(n);
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    if (!verify(state, c.data(), ref.data(), n * n, tol, "gemm")) return;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_FloatGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_FloatGemmPackedA(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{n, n}, rng);
  const Tensor b = Tensor::randn(Shape{n, n}, rng);
  const PackedA packed = pack_a_panels(a.data(), n, n);
  Tensor c{Shape{n, n}};
  Tensor ref{Shape{n, n}};
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    gemm(a.data(), b.data(), ref.data(), n, n, n);
  }
  const float tol = 1e-3f * static_cast<float>(n);
  for (auto _ : state) {
    gemm_packed_a(packed, b.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    if (!verify(state, c.data(), ref.data(), n * n, tol, "gemm_packed_a")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_FloatGemmPackedA)->Arg(64)->Arg(128)->Arg(256);

void BM_XnorGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const binary::BitMatrix a =
      binary::BitMatrix::pack(Tensor::randn(Shape{n, n}, rng));
  const binary::BitMatrix b =
      binary::BitMatrix::pack(Tensor::randn(Shape{n, n}, rng));
  Tensor c{Shape{n, n}};
  Tensor ref{Shape{n, n}};
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    binary::xnor_gemm(a, b, ref.data());
  }
  for (auto _ : state) {
    binary::xnor_gemm(a, b, c.data());
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    // Integer-domain kernel: bit-identical, no tolerance.
    if (!verify(state, c.data(), ref.data(), n * n, 0.0f, "xnor_gemm")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_XnorGemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_BitPack(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  const Tensor t = Tensor::randn(Shape{n, n}, rng);
  binary::BitMatrix ref(n, n);
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    binary::pack_signs(t.data(), n, n, &ref);
  }
  binary::BitMatrix m(n, n);
  for (auto _ : state) {
    binary::pack_signs(t.data(), n, n, &m);
    benchmark::DoNotOptimize(m.row(0));
    state.PauseTiming();
    if (!(m == ref)) {
      state.SkipWithError("pack_signs diverged from scalar reference");
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BitPack)->Arg(256);

void BM_FloatConv2d(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(channels, channels, 3, 1, 1, 32, 32, rng);
  const Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = conv.forward(x, false);
  }
  const float tol = 1e-3f * static_cast<float>(conv.geometry().patch_size());
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol, "conv2d")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * conv.flops_per_sample());
}
BENCHMARK(BM_FloatConv2d)->Arg(32)->Arg(64)->Arg(128);

// The serving-path shape: prepared (panel-packed) conv over a coalesced
// batch, the configuration the edge batcher runs after PR-6.
void BM_FloatConv2dPreparedBatch(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  Rng rng(3);
  nn::Conv2d conv(6, 16, 5, 1, 0, 12, 12, rng);  // LeNet conv2 geometry
  conv.prepare_inference();
  const Tensor x = Tensor::randn(Shape{batch, 6, 12, 12}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = conv.forward(x, false);
  }
  const float tol = 1e-3f * static_cast<float>(conv.geometry().patch_size());
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol,
                "prepared conv2d")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * batch *
                          conv.flops_per_sample());
}
BENCHMARK(BM_FloatConv2dPreparedBatch)->Arg(1)->Arg(4)->Arg(16);

void BM_BinaryConv2dReference(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(4);
  binary::BinaryConv2d conv(channels, channels, 3, 1, 1, 32, 32, rng);
  const Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  Tensor ref;
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    ref = conv.forward(x, false);
  }
  const float tol = 1e-3f * static_cast<float>(conv.geometry().patch_size());
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), tol,
                "binary conv reference")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * conv.flops_per_sample());
}
BENCHMARK(BM_BinaryConv2dReference)->Arg(64);

void BM_BinaryConv2dXnor(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(4);
  binary::BinaryConv2d conv(channels, channels, 3, 1, 1, 32, 32, rng);
  conv.prepare_inference();
  const Tensor x = Tensor::randn(Shape{1, channels, 32, 32}, rng);
  // The strongest gate available: forward_fast must reproduce the
  // float-sign reference path bit for bit (the PR-2 exactness property).
  const Tensor ref = conv.forward(x, false);
  for (auto _ : state) {
    Tensor y = conv.forward_fast(x);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), 0.0f,
                "xnor conv fast path")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * conv.flops_per_sample());
}
BENCHMARK(BM_BinaryConv2dXnor)->Arg(32)->Arg(64)->Arg(128);

// Eval forwards of the AlexNet-half elementwise and pooling layers, at the
// conv1 output [1, 32, 32, 32] and the main-rest [1, 96, 16, 16] maps.
// Each output must equal a plain per-element reference loop bit for bit.
void BM_ReLUForward(benchmark::State& state) {
  const std::int64_t c = state.range(0), hw = state.range(1);
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{1, c, hw, hw}, rng);
  Tensor ref(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ref[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  nn::ReLU relu;
  for (auto _ : state) {
    Tensor y = relu.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), 0.0f, "relu")) return;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ReLUForward)->Args({32, 32})->Args({96, 16});

void BM_MaxPool2dEval(benchmark::State& state) {
  const std::int64_t c = state.range(0), hw = state.range(1);
  Rng rng(6);
  const Tensor x = Tensor::randn(Shape{1, c, hw, hw}, rng);
  const std::int64_t ohw = hw / 2;
  Tensor ref{Shape{1, c, ohw, ohw}};
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < ohw; ++y) {
      for (std::int64_t xx = 0; xx < ohw; ++xx) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::int64_t ky = 0; ky < 2; ++ky) {
          for (std::int64_t kx = 0; kx < 2; ++kx) {
            const float v = x.at4(0, ch, 2 * y + ky, 2 * xx + kx);
            if (v > best) best = v;
          }
        }
        ref.at4(0, ch, y, xx) = best;
      }
    }
  }
  nn::MaxPool2d pool(2, 2);
  for (auto _ : state) {
    Tensor y = pool.forward(x, false);
    benchmark::DoNotOptimize(y.data());
    state.PauseTiming();
    if (!verify(state, y.data(), ref.data(), y.numel(), 0.0f, "maxpool")) {
      return;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_MaxPool2dEval)->Args({32, 32})->Args({96, 16});

}  // namespace
}  // namespace lcrs

BENCHMARK_MAIN();
