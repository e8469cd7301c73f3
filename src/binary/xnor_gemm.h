// XNOR + popcount matrix multiplication over bit-packed sign matrices.
//
// This replaces the float GEMM inside binary conv/linear layers at
// inference time: C[m x n] = A_signs[m x k] * B_signs[n x k]^T where every
// multiply-accumulate over 64 entries collapses to one XOR + one POPCNT.
#pragma once

#include <cstdint>

#include "binary/bitmatrix.h"
#include "tensor/im2col.h"

namespace lcrs::binary {

/// C[m x n] (float) = sign-dot of every row of `a` with every row of `b`.
/// Requires a.cols() == b.cols(); the result is exact (integer-valued).
void xnor_gemm(const BitMatrix& a, const BitMatrix& b, float* c);

/// Tensor convenience wrapper: returns [a.rows x b.rows].
Tensor xnor_matmul(const BitMatrix& a, const BitMatrix& b);

/// Complete binary convolution forward through the XNOR path: packs the
/// input signs per output pixel, multiplies against pre-packed weight
/// bits [out_c x patch] (pack_filters), and applies the K * alpha
/// scaling of Eq. 4. Numerically identical to BinaryConv2d's float-sign
/// forward. The browser engine's binary conv op.
Tensor xnor_conv2d(const Tensor& input, const ConvGeom& geom,
                   const BitMatrix& weight_bits, const Tensor& alpha);

/// Binary fully-connected forward through the XNOR path; `bias` may be
/// null. weight_bits is [out x in] (pack_filters). Numerically identical
/// to BinaryLinear's float-sign forward.
Tensor xnor_linear(const Tensor& input, const BitMatrix& weight_bits,
                   const Tensor& alpha, const Tensor* bias);

}  // namespace lcrs::binary
