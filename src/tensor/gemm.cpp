#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"
#include "common/simd.h"

#if LCRS_SIMD_COMPILED_AVX2 || LCRS_SIMD_COMPILED_SSE
#include <immintrin.h>
#endif
#if LCRS_SIMD_COMPILED_NEON
#include <arm_neon.h>
#endif

namespace lcrs {

namespace {

// Tile sizes chosen for ~32 KiB L1: one A tile + one B tile fit together.
constexpr std::int64_t kTileM = 64;
constexpr std::int64_t kTileN = 64;
constexpr std::int64_t kTileK = 64;

void scale_c(float* c, std::int64_t m, std::int64_t n, float beta) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return;
  }
  for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
}

// Every tile kernel computes
//   C[i0..i1, j0..j1] += A[i0..i1, k0..k1] * B[k0..k1, j0..j1]
// with each C element updated in ascending-k order, so all variants are
// row-pure and agree with each other up to FMA rounding. The SIMD
// variants vectorize across j (independent outputs) and keep the k loop
// serial per element -- the order is what the batched serving path's
// bit-identity property stands on, so do not reassociate it.

void tile_kernel_scalar(const float* a, const float* b, float* c,
                        std::int64_t k, std::int64_t n, std::int64_t i0,
                        std::int64_t i1, std::int64_t j0, std::int64_t j1,
                        std::int64_t k0, std::int64_t k1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

#if LCRS_SIMD_COMPILED_AVX2

inline __m256 madd8(__m256 a, __m256 b, __m256 c) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

void tile_kernel_avx2(const float* a, const float* b, float* c,
                      std::int64_t k, std::int64_t n, std::int64_t i0,
                      std::int64_t i1, std::int64_t j0, std::int64_t j1,
                      std::int64_t k0, std::int64_t k1) {
  std::int64_t i = i0;
  // 4 rows x 16 columns held in registers across the k tile: 8
  // accumulators + 2 B vectors + 1 broadcast stay within 16 ymm regs.
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    std::int64_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      __m256 x00 = _mm256_loadu_ps(c0 + j), x01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 x10 = _mm256_loadu_ps(c1 + j), x11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 x20 = _mm256_loadu_ps(c2 + j), x21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 x30 = _mm256_loadu_ps(c3 + j), x31 = _mm256_loadu_ps(c3 + j + 8);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float* brow = b + kk * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_broadcast_ss(a0 + kk);
        x00 = madd8(av, b0, x00);
        x01 = madd8(av, b1, x01);
        av = _mm256_broadcast_ss(a1 + kk);
        x10 = madd8(av, b0, x10);
        x11 = madd8(av, b1, x11);
        av = _mm256_broadcast_ss(a2 + kk);
        x20 = madd8(av, b0, x20);
        x21 = madd8(av, b1, x21);
        av = _mm256_broadcast_ss(a3 + kk);
        x30 = madd8(av, b0, x30);
        x31 = madd8(av, b1, x31);
      }
      _mm256_storeu_ps(c0 + j, x00);
      _mm256_storeu_ps(c0 + j + 8, x01);
      _mm256_storeu_ps(c1 + j, x10);
      _mm256_storeu_ps(c1 + j + 8, x11);
      _mm256_storeu_ps(c2 + j, x20);
      _mm256_storeu_ps(c2 + j + 8, x21);
      _mm256_storeu_ps(c3 + j, x30);
      _mm256_storeu_ps(c3 + j + 8, x31);
    }
    for (; j + 8 <= j1; j += 8) {
      __m256 x0 = _mm256_loadu_ps(c0 + j);
      __m256 x1 = _mm256_loadu_ps(c1 + j);
      __m256 x2 = _mm256_loadu_ps(c2 + j);
      __m256 x3 = _mm256_loadu_ps(c3 + j);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const __m256 bv = _mm256_loadu_ps(b + kk * n + j);
        x0 = madd8(_mm256_broadcast_ss(a0 + kk), bv, x0);
        x1 = madd8(_mm256_broadcast_ss(a1 + kk), bv, x1);
        x2 = madd8(_mm256_broadcast_ss(a2 + kk), bv, x2);
        x3 = madd8(_mm256_broadcast_ss(a3 + kk), bv, x3);
      }
      _mm256_storeu_ps(c0 + j, x0);
      _mm256_storeu_ps(c1 + j, x1);
      _mm256_storeu_ps(c2 + j, x2);
      _mm256_storeu_ps(c3 + j, x3);
    }
    if (j < j1) {
      tile_kernel_scalar(a, b, c, k, n, i, i + 4, j, j1, k0, k1);
    }
  }
  for (; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      __m256 x = _mm256_loadu_ps(crow + j);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        x = madd8(_mm256_broadcast_ss(arow + kk),
                  _mm256_loadu_ps(b + kk * n + j), x);
      }
      _mm256_storeu_ps(crow + j, x);
    }
    if (j < j1) {
      tile_kernel_scalar(a, b, c, k, n, i, i + 1, j, j1, k0, k1);
    }
  }
}

#endif  // LCRS_SIMD_COMPILED_AVX2

#if LCRS_SIMD_COMPILED_SSE

void tile_kernel_sse(const float* a, const float* b, float* c,
                     std::int64_t k, std::int64_t n, std::int64_t i0,
                     std::int64_t i1, std::int64_t j0, std::int64_t j1,
                     std::int64_t k0, std::int64_t k1) {
  std::int64_t i = i0;
  // 2 rows x 8 columns (4 xmm accumulators); SSE2 has no FMA, so this
  // level is plain mul+add -- still the same ascending-k chain.
  for (; i + 2 <= i1; i += 2) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    std::int64_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      __m128 x00 = _mm_loadu_ps(c0 + j), x01 = _mm_loadu_ps(c0 + j + 4);
      __m128 x10 = _mm_loadu_ps(c1 + j), x11 = _mm_loadu_ps(c1 + j + 4);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float* brow = b + kk * n + j;
        const __m128 b0 = _mm_loadu_ps(brow);
        const __m128 b1 = _mm_loadu_ps(brow + 4);
        __m128 av = _mm_set1_ps(a0[kk]);
        x00 = _mm_add_ps(x00, _mm_mul_ps(av, b0));
        x01 = _mm_add_ps(x01, _mm_mul_ps(av, b1));
        av = _mm_set1_ps(a1[kk]);
        x10 = _mm_add_ps(x10, _mm_mul_ps(av, b0));
        x11 = _mm_add_ps(x11, _mm_mul_ps(av, b1));
      }
      _mm_storeu_ps(c0 + j, x00);
      _mm_storeu_ps(c0 + j + 4, x01);
      _mm_storeu_ps(c1 + j, x10);
      _mm_storeu_ps(c1 + j + 4, x11);
    }
    if (j < j1) {
      tile_kernel_scalar(a, b, c, k, n, i, i + 2, j, j1, k0, k1);
    }
  }
  if (i < i1) {
    tile_kernel_scalar(a, b, c, k, n, i, i1, j0, j1, k0, k1);
  }
}

#endif  // LCRS_SIMD_COMPILED_SSE

#if LCRS_SIMD_COMPILED_NEON

void tile_kernel_neon(const float* a, const float* b, float* c,
                      std::int64_t k, std::int64_t n, std::int64_t i0,
                      std::int64_t i1, std::int64_t j0, std::int64_t j1,
                      std::int64_t k0, std::int64_t k1) {
  std::int64_t i = i0;
  // 2 rows x 8 columns; vfmaq is fused like the AVX2 path.
  for (; i + 2 <= i1; i += 2) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    std::int64_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      float32x4_t x00 = vld1q_f32(c0 + j), x01 = vld1q_f32(c0 + j + 4);
      float32x4_t x10 = vld1q_f32(c1 + j), x11 = vld1q_f32(c1 + j + 4);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float* brow = b + kk * n + j;
        const float32x4_t b0 = vld1q_f32(brow);
        const float32x4_t b1 = vld1q_f32(brow + 4);
        x00 = vfmaq_n_f32(x00, b0, a0[kk]);
        x01 = vfmaq_n_f32(x01, b1, a0[kk]);
        x10 = vfmaq_n_f32(x10, b0, a1[kk]);
        x11 = vfmaq_n_f32(x11, b1, a1[kk]);
      }
      vst1q_f32(c0 + j, x00);
      vst1q_f32(c0 + j + 4, x01);
      vst1q_f32(c1 + j, x10);
      vst1q_f32(c1 + j + 4, x11);
    }
    if (j < j1) {
      tile_kernel_scalar(a, b, c, k, n, i, i + 2, j, j1, k0, k1);
    }
  }
  if (i < i1) {
    tile_kernel_scalar(a, b, c, k, n, i, i1, j0, j1, k0, k1);
  }
}

#endif  // LCRS_SIMD_COMPILED_NEON

using TileKernel = void (*)(const float*, const float*, float*,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t);

TileKernel select_tile_kernel() {
  const simd::Level level = simd::active_level();
#if LCRS_SIMD_COMPILED_AVX2
  if (level == simd::Level::kAvx2) return tile_kernel_avx2;
#endif
#if LCRS_SIMD_COMPILED_SSE
  if (level == simd::Level::kSse) return tile_kernel_sse;
#endif
#if LCRS_SIMD_COMPILED_NEON
  if (level == simd::Level::kNeon) return tile_kernel_neon;
#endif
  (void)level;
  return tile_kernel_scalar;
}

#if LCRS_SIMD_COMPILED_AVX2

// Small-batch path (see gemm.h): below kStreamRowsBelow rows, gemm
// streams B in blocks of kStreamK rows x kStreamN columns instead of
// tiling it. kStreamN keeps a block's B rows (16 KiB) in L1 while every
// A row passes over them. Below kStreamMinCols columns the path's fixed
// cost per B row (the zero-column compaction, one C reload per block)
// outweighs what it saves; the measured crossover lies between 24 and 32
// columns at k = 384 and 1536. Other levels keep the tiled kernel.
constexpr std::int64_t kStreamRowsBelow = 4;
constexpr std::int64_t kStreamK = 8;
constexpr std::int64_t kStreamN = 512;
constexpr std::int64_t kStreamMinCols = 32;

// C[0..m, j0..j1) += sum over t of A[0..m, ks[t]] * B[ks[t], j0..j1), for
// KB ascending B row indices ks. The KB broadcasts of each A row stay in
// registers while the j loop walks the KB B rows contiguously, so every
// B row is read once per call as a sequential stream the prefetcher
// follows. Each C element takes its KB products in ascending k,
// continuing the chain the previous block left in memory.
template <int KB>
void stream_block_avx2(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n,
                       const std::int64_t* ks, std::int64_t j0,
                       std::int64_t j1) {
  for (std::int64_t i = 0; i < m; ++i) {
    __m256 av[KB];
    for (int t = 0; t < KB; ++t) {
      av[t] = _mm256_broadcast_ss(a + i * k + ks[t]);
    }
    float* crow = c + i * n;
    for (std::int64_t j = j0; j < j1; j += 8) {
      __m256 x = _mm256_loadu_ps(crow + j);
      for (int t = 0; t < KB; ++t) {
        x = madd8(av[t], _mm256_loadu_ps(b + ks[t] * n + j), x);
      }
      _mm256_storeu_ps(crow + j, x);
    }
  }
}

void gemm_small_batch_avx2(const float* a, const float* b, float* c,
                           std::int64_t m, std::int64_t k, std::int64_t n) {
  // Columns past the last multiple of 8 run the scalar tile kernel, the
  // same tail the tiled path hands it, so those bits match too.
  const std::int64_t n8 = n - n % 8;
  auto stream = [&](auto kernel, const std::int64_t* ks) {
    for (std::int64_t j0 = 0; j0 < n8; j0 += kStreamN) {
      kernel(a, b, c, m, k, n, ks, j0, std::min(j0 + kStreamN, n8));
    }
  };
  // A k whose A column is zero in every row only adds exact zeros, so
  // its B row is skipped, as tile_kernel_scalar skips a zero A value (see
  // gemm.h for the two inputs where that shows). On AlexNet's ReLU
  // outputs it skips 30-50% of B.
  std::int64_t ks[kStreamK];
  std::int64_t live = 0;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    bool zero = true;
    for (std::int64_t i = 0; i < m && zero; ++i) zero = a[i * k + kk] == 0.0f;
    if (zero) continue;
    ks[live++] = kk;
    if (live == kStreamK) {
      stream(stream_block_avx2<kStreamK>, ks);
      live = 0;
    }
  }
  for (std::int64_t t = 0; t < live; ++t) stream(stream_block_avx2<1>, ks + t);
  if (n8 < n) tile_kernel_scalar(a, b, c, k, n, 0, m, n8, n, 0, k);
}

#endif  // LCRS_SIMD_COMPILED_AVX2

}  // namespace

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float beta) {
  scale_c(c, m, n, beta);
#if LCRS_SIMD_COMPILED_AVX2
  if (m < kStreamRowsBelow && n >= kStreamMinCols &&
      simd::active_level() == simd::Level::kAvx2) {
    gemm_small_batch_avx2(a, b, c, m, k, n);
    return;
  }
#endif
  const TileKernel kernel = select_tile_kernel();
  parallel_for(m, [&](std::int64_t row_begin, std::int64_t row_end) {
    for (std::int64_t i0 = row_begin; i0 < row_end; i0 += kTileM) {
      const std::int64_t i1 = std::min(i0 + kTileM, row_end);
      for (std::int64_t k0 = 0; k0 < k; k0 += kTileK) {
        const std::int64_t k1 = std::min(k0 + kTileK, k);
        for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
          const std::int64_t j1 = std::min(j0 + kTileN, n);
          kernel(a, b, c, k, n, i0, i1, j0, j1, k0, k1);
        }
      }
    }
  });
}

void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float beta) {
  // A is stored [k x m]; materialize the transpose once, then reuse the
  // blocked kernel. The copy is O(mk) against the O(mkn) multiply.
  std::vector<float> at(static_cast<std::size_t>(m * k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t i = 0; i < m; ++i) at[i * k + kk] = a[kk * m + i];
  }
  gemm(at.data(), b, c, m, k, n, beta);
}

namespace {

// One A row against four consecutive B rows. Four independent
// accumulator chains hide the FMA latency that a single running dot
// product serializes on; each chain still adds products in ascending-k
// order, so every output bit matches the plain dot-product kernel.
void bt_row(const float* arow, const float* b, float* crow, std::int64_t k,
            std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* b0 = b + j * k;
    const float* b1 = b0 + k;
    const float* b2 = b1 + k;
    const float* b3 = b2 + k;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      s0 += av * b0[kk];
      s1 += av * b1[kk];
      s2 += av * b2[kk];
      s3 += av * b3[kk];
    }
    crow[j] += s0;
    crow[j + 1] += s1;
    crow[j + 2] += s2;
    crow[j + 3] += s3;
  }
  for (; j < n; ++j) {
    const float* brow = b + j * k;
    float acc = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
    crow[j] += acc;
  }
}

}  // namespace

void gemm_bt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float beta) {
  // B is stored [n x k]: dot products over contiguous rows of both
  // operands, so no transpose is needed. Rows are processed in pairs so
  // each streamed B row feeds two A rows, halving B traffic for batched
  // inputs; within a pair the 2x4 microkernel keeps eight independent
  // accumulators in flight. Every c[i][j] is still a single ascending-k
  // accumulation over (A row i, B row j) regardless of m, so results are
  // bit-identical for any batch size -- the row-independence the batched
  // edge serving path relies on. This training-path kernel is left
  // scalar on purpose: a vectorized dot product needs lane-split partial
  // sums, which would reassociate the chain.
  scale_c(c, m, n, beta);
  parallel_for(m, [&](std::int64_t row_begin, std::int64_t row_end) {
    std::int64_t i = row_begin;
    for (; i + 2 <= row_end; i += 2) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      float* c0 = c + i * n;
      float* c1 = c0 + n;
      std::int64_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const float* b0 = b + j * k;
        const float* b1 = b0 + k;
        const float* b2 = b1 + k;
        const float* b3 = b2 + k;
        float s00 = 0.0f, s01 = 0.0f, s02 = 0.0f, s03 = 0.0f;
        float s10 = 0.0f, s11 = 0.0f, s12 = 0.0f, s13 = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av0 = a0[kk], av1 = a1[kk];
          const float bv0 = b0[kk], bv1 = b1[kk];
          const float bv2 = b2[kk], bv3 = b3[kk];
          s00 += av0 * bv0;
          s01 += av0 * bv1;
          s02 += av0 * bv2;
          s03 += av0 * bv3;
          s10 += av1 * bv0;
          s11 += av1 * bv1;
          s12 += av1 * bv2;
          s13 += av1 * bv3;
        }
        c0[j] += s00;
        c0[j + 1] += s01;
        c0[j + 2] += s02;
        c0[j + 3] += s03;
        c1[j] += s10;
        c1[j + 1] += s11;
        c1[j + 2] += s12;
        c1[j + 3] += s13;
      }
      for (; j < n; ++j) {
        const float* brow = b + j * k;
        float s0 = 0.0f, s1 = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          s0 += a0[kk] * brow[kk];
          s1 += a1[kk] * brow[kk];
        }
        c0[j] += s0;
        c1[j] += s1;
      }
    }
    for (; i < row_end; ++i) {
      bt_row(a + i * k, b, c + i * n, k, n);
    }
  });
}

void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = beta * c[i * n + j] + acc;
    }
  }
}

}  // namespace lcrs
