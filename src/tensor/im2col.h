// im2col / col2im lowering for convolution.
//
// Conv2d forward lowers each input window to a column so convolution
// becomes one GEMM; col2im is the adjoint used in the backward pass.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace lcrs {

/// Static description of a 2-D convolution geometry.
struct ConvGeom {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t kernel = 1;   // square kernels only (all paper models)
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the lowered patch matrix (= one dot product per output pixel).
  std::int64_t patch_size() const { return in_c * kernel * kernel; }

  void validate() const;
};

/// Lowers one image [C, H, W] (flat pointer) into `cols` with layout
/// [patch_size x (out_h * out_w)]: row = (c, kh, kw), col = output pixel.
/// `pad_value` fills out-of-bounds taps: 0 for ordinary convolution, +1
/// when lowering an already-binarized input (sign(0) = +1 convention, so
/// the float-sign reference and the bit-packed XNOR path agree exactly).
void im2col(const float* image, const ConvGeom& g, float* cols,
            float pad_value = 0.0f);

/// Transposed lowering: `rows` gets [out_pixels x patch_size], row =
/// output pixel, col = (c, kh, kw). The pixel-major layout makes each
/// patch contiguous, which is what the fused binarize+bitpack consumes
/// (one patch row packs straight into one BitMatrix row). Interior
/// pixels copy each kernel row's `kernel` taps with one memcpy.
void im2col_rows(const float* image, const ConvGeom& g, float* rows,
                 float pad_value = 0.0f);

/// Adjoint of im2col: scatters `cols` gradients back into `image_grad`
/// (accumulating; caller zeroes the buffer).
void col2im(const float* cols, const ConvGeom& g, float* image_grad);

}  // namespace lcrs
