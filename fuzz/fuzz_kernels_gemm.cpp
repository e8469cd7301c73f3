// Differential GEMM harness: decodes ragged shapes from the input and
// asserts SIMD-vs-scalar parity for every float GEMM entry point at every
// dispatch level compiled into this binary.
//
// Oracles (per DESIGN.md "SIMD kernel layer" parity contract):
//   * every available level matches the forced-scalar result within the
//     k-scaled tolerance the property tests use (levels differ only by
//     FMA-vs-mul+add rounding inside one ascending-k chain);
//   * gemm_at / gemm_bt agree with gemm_naive on explicitly transposed
//     operands;
//   * row purity: one row multiplied alone is bit-identical to the same
//     row of the full multiply at the same level (the batch==single
//     serving guarantee).
#include <cmath>
#include <cstring>
#include <vector>

#include "common/simd.h"
#include "fuzz_util.h"
#include "tensor/gemm.h"

using namespace lcrs;

namespace {

void check_close(const std::vector<float>& got,
                 const std::vector<float>& want, std::int64_t k,
                 const char* what) {
  // Same error budget as tests/test_gemm.cpp: reassociation-free chains
  // differ across levels only by per-step rounding, which scales with k.
  const double tol = 1e-3 * static_cast<double>(k) + 1e-6;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double diff = std::abs(static_cast<double>(got[i]) -
                                 static_cast<double>(want[i]));
    if (!(diff <= tol)) {
      std::fprintf(stderr, "%s: index %zu got %g want %g (tol %g)\n", what,
                   i, static_cast<double>(got[i]),
                   static_cast<double>(want[i]), tol);
      FUZZ_ASSERT(false, what);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz::FuzzInput in(data, size);
  const std::int64_t m = in.take_range(1, 12);
  const std::int64_t k = in.take_range(1, 48);
  const std::int64_t n = in.take_range(1, 16);
  const float betas[] = {0.0f, 1.0f, 0.5f, -1.0f};
  const float beta = betas[in.take_range(0, 3)];
  const std::int64_t probe_row = in.take_range(0, m - 1);

  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c0(static_cast<std::size_t>(m * n));
  for (auto& v : a) v = in.take_f32();
  for (auto& v : b) v = in.take_f32();
  for (auto& v : c0) v = in.take_f32();

  // Explicit transposes for the _at / _bt entry points.
  std::vector<float> a_t(static_cast<std::size_t>(k * m));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      a_t[static_cast<std::size_t>(kk * m + i)] =
          a[static_cast<std::size_t>(i * k + kk)];
    }
  }
  std::vector<float> b_t(static_cast<std::size_t>(n * k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      b_t[static_cast<std::size_t>(j * k + kk)] =
          b[static_cast<std::size_t>(kk * n + j)];
    }
  }

  // Ground truth: the reference triple loop.
  std::vector<float> naive = c0;
  gemm_naive(a.data(), b.data(), naive.data(), m, k, n, beta);

  // Forced-scalar gemm: the cross-level comparison baseline.
  std::vector<float> ref = c0;
  {
    simd::ScopedForcedLevel forced(simd::Level::kScalar);
    gemm(a.data(), b.data(), ref.data(), m, k, n, beta);
  }
  check_close(ref, naive, k, "scalar gemm diverges from gemm_naive");

  const simd::Level levels[] = {simd::Level::kScalar, simd::Level::kSse,
                                simd::Level::kAvx2, simd::Level::kNeon};
  for (const simd::Level level : levels) {
    if (!simd::level_available(level)) continue;
    simd::ScopedForcedLevel forced(level);

    std::vector<float> c = c0;
    gemm(a.data(), b.data(), c.data(), m, k, n, beta);
    check_close(c, ref, k, "gemm diverges from forced-scalar gemm");

    std::vector<float> c_at = c0;
    gemm_at(a_t.data(), b.data(), c_at.data(), m, k, n, beta);
    check_close(c_at, naive, k, "gemm_at diverges from gemm_naive");

    std::vector<float> c_bt = c0;
    gemm_bt(a.data(), b_t.data(), c_bt.data(), m, k, n, beta);
    check_close(c_bt, naive, k, "gemm_bt diverges from gemm_naive");

    // Row purity: the probe row computed alone must be bit-identical to
    // the same row of the batched multiply at this level.
    std::vector<float> row_c(
        c0.begin() + probe_row * n, c0.begin() + (probe_row + 1) * n);
    gemm(a.data() + probe_row * k, b.data(), row_c.data(), 1, k, n, beta);
    FUZZ_ASSERT(std::memcmp(row_c.data(), c.data() + probe_row * n,
                            static_cast<std::size_t>(n) * sizeof(float)) ==
                    0,
                "gemm is not row-pure at this level");
  }
  return 0;
}
