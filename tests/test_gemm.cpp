// Property tests: every GEMM variant must match the naive oracle across a
// sweep of shapes, including degenerate and non-tile-aligned ones.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace lcrs {
namespace {

using GemmShape = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

std::vector<float> random_matrix(std::int64_t n, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(n));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

void expect_near_all(const std::vector<float>& a, const std::vector<float>& b,
                     float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

TEST_P(GemmShapes, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c_fast(static_cast<std::size_t>(m * n), 1.0f);
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 1.0f);
  gemm(a.data(), b.data(), c_fast.data(), m, k, n);
  gemm_naive(a.data(), b.data(), c_ref.data(), m, k, n);
  expect_near_all(c_fast, c_ref, 1e-3f * static_cast<float>(k));
}

TEST_P(GemmShapes, TransposedAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  const auto at = random_matrix(k * m, rng);  // stored [k x m]
  const auto b = random_matrix(k * n, rng);
  // Build the explicit transpose for the oracle.
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t i = 0; i < m; ++i) a[i * k + kk] = at[kk * m + i];
  }
  std::vector<float> c_fast(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.0f);
  gemm_at(at.data(), b.data(), c_fast.data(), m, k, n);
  gemm_naive(a.data(), b.data(), c_ref.data(), m, k, n);
  expect_near_all(c_fast, c_ref, 1e-3f * static_cast<float>(k));
}

TEST_P(GemmShapes, TransposedBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(3 * m + 5 * k + 7 * n);
  const auto a = random_matrix(m * k, rng);
  const auto bt = random_matrix(n * k, rng);  // stored [n x k]
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t kk = 0; kk < k; ++kk) b[kk * n + j] = bt[j * k + kk];
  }
  std::vector<float> c_fast(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.0f);
  gemm_bt(a.data(), bt.data(), c_fast.data(), m, k, n);
  gemm_naive(a.data(), b.data(), c_ref.data(), m, k, n);
  expect_near_all(c_fast, c_ref, 1e-3f * static_cast<float>(k));
}

TEST_P(GemmShapes, BetaOneAccumulates) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * k * n + 1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 2.0f);
  std::vector<float> ref(static_cast<std::size_t>(m * n), 2.0f);
  gemm(a.data(), b.data(), c.data(), m, k, n, /*beta=*/1.0f);
  gemm_naive(a.data(), b.data(), ref.data(), m, k, n, /*beta=*/1.0f);
  expect_near_all(c, ref, 1e-3f * static_cast<float>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 64, 1},
                      GemmShape{3, 5, 7}, GemmShape{16, 16, 16},
                      GemmShape{64, 64, 64}, GemmShape{65, 63, 67},
                      GemmShape{128, 27, 196}, GemmShape{10, 400, 120},
                      GemmShape{2, 130, 257}, GemmShape{1, 803, 389},
                      GemmShape{3, 1027, 1541}, GemmShape{5, 131, 1000},
                      GemmShape{8, 257, 130}));

// TSan gate for the kernel thread pool (scripts/check_tsan.sh): force a
// multi-worker pool so the blocked GEMM genuinely fans out even on
// single-core hosts, and pin the result against the serial oracle. A data
// race in the pool or an overlapping row partition shows up here either
// as a TSan report or as a mismatch.
TEST(GemmParallel, ForcedFourWorkerPoolMatchesNaive) {
  const int prev = parallel_thread_count();
  set_parallel_thread_count(4);
  const std::int64_t m = 67, k = 45, n = 53;
  Rng rng(0x9ea11e1);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c_fast(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.0f);
  gemm(a.data(), b.data(), c_fast.data(), m, k, n);
  set_parallel_thread_count(1);
  gemm_naive(a.data(), b.data(), c_ref.data(), m, k, n);
  set_parallel_thread_count(prev);
  expect_near_all(c_fast, c_ref, 1e-3f * static_cast<float>(k));
}

// Every SIMD level the running host can actually execute; kScalar first
// so the reference output in the sweeps below comes from the portable
// loop.
std::vector<simd::Level> testable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level l :
       {simd::Level::kSse, simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::level_available(l)) levels.push_back(l);
  }
  return levels;
}

// Cross-level float tolerance (documented in DESIGN.md "SIMD kernel
// layer"): levels differ only by FMA-vs-mul+add rounding inside one
// ascending-k chain, so the error budget scales with k. Same bound the
// oracle comparisons above use.
TEST_P(GemmShapes, AllDispatchLevelsMatchForcedScalar) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 31 + k * 17 + n * 13);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c_scalar(static_cast<std::size_t>(m * n), 0.0f);
  {
    simd::ScopedForcedLevel force(simd::Level::kScalar);
    gemm(a.data(), b.data(), c_scalar.data(), m, k, n);
  }
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    gemm(a.data(), b.data(), c.data(), m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_scalar[i], 1e-3f * static_cast<float>(k))
          << "level " << simd::level_name(level) << " index " << i;
    }
  }
}

// The small-batch path (m < 4 at AVX2) and the tiled kernel must agree
// bit for bit: the edge serves a frame alone or in a
// batch of up to 8, and row i's answer may not depend on which. A holds
// ReLU-like zeros, including k columns that are zero in every row, so
// the streaming path's zero skip is exercised; n % 8 != 0 and k % 8 != 0
// reach the scalar column tail and the single-row k remainder.
TEST(GemmSmallBatch, EveryBatchSizeMatchesBatchOfEightRowForRow) {
  const std::int64_t k = 1027, n = 389, rows = 8;
  Rng rng(0x5ba7c4);
  std::vector<float> a = random_matrix(rows * k, rng);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const bool dead_column = kk % 5 == 0;
    for (std::int64_t i = 0; i < rows; ++i) {
      float& v = a[static_cast<std::size_t>(i * k + kk)];
      if (dead_column || v < 0.0f) v = 0.0f;
    }
  }
  const auto b = random_matrix(k * n, rng);
  for (const simd::Level level : testable_levels()) {
    simd::ScopedForcedLevel force(level);
    std::vector<float> full(static_cast<std::size_t>(rows * n));
    gemm(a.data(), b.data(), full.data(), rows, k, n);
    for (std::int64_t m = 1; m < rows; ++m) {
      for (std::int64_t r0 = 0; r0 + m <= rows; r0 += m) {
        std::vector<float> part(static_cast<std::size_t>(m * n));
        gemm(a.data() + r0 * k, b.data(), part.data(), m, k, n);
        for (std::int64_t i = 0; i < m * n; ++i) {
          ASSERT_EQ(part[static_cast<std::size_t>(i)],
                    full[static_cast<std::size_t>(r0 * n + i)])
              << "level " << simd::level_name(level) << " m=" << m
              << " rows from " << r0 << " index " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcrs
