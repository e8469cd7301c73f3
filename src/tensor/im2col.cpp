#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

namespace lcrs {

void ConvGeom::validate() const {
  LCRS_CHECK(in_c > 0 && in_h > 0 && in_w > 0,
             "conv geometry needs positive input dims");
  LCRS_CHECK(kernel > 0 && stride > 0 && pad >= 0,
             "conv geometry needs kernel>0, stride>0, pad>=0");
  // Per-field caps so every derived quantity (out_h * out_w, patch_size,
  // the patch * pixels buffer size) fits int64 with huge margin. Geometry
  // arrives from untrusted web-model blobs (webinfer read_geom), where a
  // forged field would otherwise overflow the arithmetic above into a
  // small positive buffer size and turn the lowering into a heap smash.
  constexpr std::int64_t kMaxExtent = 1 << 20;  // 1M pixels per axis
  LCRS_CHECK(in_c <= kMaxExtent && in_h <= kMaxExtent && in_w <= kMaxExtent &&
                 kernel <= kMaxExtent && stride <= kMaxExtent &&
                 pad <= kMaxExtent,
             "conv geometry field exceeds the 2^20 wire-format cap");
  LCRS_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
             "kernel " << kernel << " larger than padded input " << in_h
                       << "x" << in_w << " pad " << pad);
}

void im2col(const float* image, const ConvGeom& g, float* cols,
            float pad_value) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t out_pixels = oh * ow;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* chan = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        float* out_row = cols + row * out_pixels;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t in_y = y * g.stride + kh - g.pad;
          if (in_y < 0 || in_y >= g.in_h) {
            for (std::int64_t x = 0; x < ow; ++x) {
              out_row[y * ow + x] = pad_value;
            }
            continue;
          }
          const float* in_row = chan + in_y * g.in_w;
          if (g.stride == 1) {
            // in_x = x + kw - pad is affine with slope 1: the valid x
            // range is contiguous, so the interior is one memcpy.
            const std::int64_t lo =
                std::max<std::int64_t>(0, g.pad - kw);
            const std::int64_t hi =
                std::min<std::int64_t>(ow, g.in_w + g.pad - kw);
            float* dst = out_row + y * ow;
            for (std::int64_t x = 0; x < std::min<std::int64_t>(lo, ow);
                 ++x) {
              dst[x] = pad_value;
            }
            if (hi > lo) {
              std::memcpy(dst + lo, in_row + (lo + kw - g.pad),
                          static_cast<std::size_t>(hi - lo) *
                              sizeof(float));
            }
            for (std::int64_t x = std::max<std::int64_t>(hi, 0); x < ow;
                 ++x) {
              dst[x] = pad_value;
            }
            continue;
          }
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t in_x = x * g.stride + kw - g.pad;
            out_row[y * ow + x] =
                (in_x >= 0 && in_x < g.in_w) ? in_row[in_x] : pad_value;
          }
        }
      }
    }
  }
}

void im2col_rows(const float* image, const ConvGeom& g, float* rows,
                 float pad_value) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.patch_size();
  const std::int64_t chan_stride = g.in_h * g.in_w;
  for (std::int64_t y = 0; y < oh; ++y) {
    for (std::int64_t x = 0; x < ow; ++x) {
      float* prow = rows + (y * ow + x) * patch;
      const std::int64_t base_y = y * g.stride - g.pad;
      const std::int64_t base_x = x * g.stride - g.pad;
      std::int64_t col = 0;
      for (std::int64_t c = 0; c < g.in_c; ++c) {
        const float* chan = image + c * chan_stride;
        for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
          const std::int64_t in_y = base_y + kh;
          if (in_y < 0 || in_y >= g.in_h) {
            for (std::int64_t kw = 0; kw < g.kernel; ++kw) {
              prow[col++] = pad_value;
            }
            continue;
          }
          const std::int64_t lo =
              std::clamp<std::int64_t>(-base_x, 0, g.kernel);
          const std::int64_t hi =
              std::clamp<std::int64_t>(g.in_w - base_x, 0, g.kernel);
          const float* in_row = chan + in_y * g.in_w;
          for (std::int64_t kw = 0; kw < lo; ++kw) prow[col + kw] = pad_value;
          if (hi > lo) {
            // The kw taps of one kernel row are contiguous in the image.
            std::memcpy(prow + col + lo, in_row + base_x + lo,
                        static_cast<std::size_t>(hi - lo) * sizeof(float));
          }
          for (std::int64_t kw = hi; kw < g.kernel; ++kw) {
            prow[col + kw] = pad_value;
          }
          col += g.kernel;
        }
      }
    }
  }
}

void col2im(const float* cols, const ConvGeom& g, float* image_grad) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t out_pixels = oh * ow;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* chan = image_grad + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        const float* in_row_grad = cols + row * out_pixels;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t in_y = y * g.stride + kh - g.pad;
          if (in_y < 0 || in_y >= g.in_h) continue;
          float* chan_row = chan + in_y * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t in_x = x * g.stride + kw - g.pad;
            if (in_x >= 0 && in_x < g.in_w) {
              chan_row[in_x] += in_row_grad[y * ow + x];
            }
          }
        }
      }
    }
  }
}

}  // namespace lcrs
