// Single-precision matrix multiplication kernels.
//
// Convolution in this library is im2col + GEMM, so this file is the hot
// path for both training and full-precision inference. The blocked kernel
// is cache-tiled and register-accumulated, with SIMD inner loops
// dispatched at runtime (common/simd.h: AVX2/SSE with a scalar
// fallback); `gemm_naive` is the oracle the tests compare against.
//
// Parity contract: every variant of `gemm` computes each output element
// as one ascending-k accumulation chain, so results are row-pure (row i
// of a batched multiply is bit-identical to the same row multiplied
// alone) at every dispatch level, for finite B (see the small-batch path
// below). The float convolution (`conv2d`, tensor/tensor_ops.h) is one
// `gemm` per sample, so its batch rows inherit the same purity. Across
// levels the chains agree up to FMA-vs-mul+add rounding; tests bound the
// difference with a k-scaled ULP tolerance (see DESIGN.md "SIMD kernel
// layer").
//
// Small-batch path: at the AVX2 level, below 4 rows and for B at least
// 32 columns wide (the measured crossovers), `gemm` streams B instead of
// tiling it. Each B element then feeds at most three products, so the
// cost is reading B, and the tiled kernel's 1-row loop reads it in 64x64
// tiles at an n-float stride, which defeats the prefetcher. The streaming
// path reads B in blocks of 8 rows, each row once and contiguously, for
// all m rows. Each output stays on the tiled kernel's FMA chain in
// ascending k (ragged column tails on the scalar tile kernel, as there),
// so the two paths agree bit for bit, with one exception: the path skips
// B rows whose A column is zero in every row, which changes an output
// only when the skipped row holds an Inf or NaN (the tiled kernel yields
// NaN there) or beta left a -0 in C. The scalar kernel's zero skip has
// the same two exceptions. Other levels keep the tiled kernel. On a
// 4-vCPU Xeon, a dense batch-1 2048x1536 product took 490 us against
// 640 us tiled (B read at about 25 GB/s); on AlexNet's ReLU outputs
// (30-50% zeros) the skip roughly halves that again, while LeNet's Tanh
// outputs have no zeros and pay 1-2 us per call for the scan. The path
// does not fan out over parallel_for: the product is bandwidth-bound,
// and splitting its columns over 1/2/4 threads took 573/644/682 us on the
// same host.
#pragma once

#include <cstdint>

namespace lcrs {

/// C[m x n] = A[m x k] * B[k x n]. `beta` scales the existing contents of
/// C before accumulation (0 overwrites, 1 accumulates).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float beta = 0.0f);

/// C[m x n] = A^T[k x m]^T... i.e. A is stored [k x m] and used transposed.
void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float beta = 0.0f);

/// C[m x n] = A[m x k] * B^T where B is stored [n x k].
void gemm_bt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float beta = 0.0f);

/// Reference triple loop; used by tests as ground truth.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, float beta = 0.0f);

}  // namespace lcrs
