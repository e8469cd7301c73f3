#include "binary/binarize.h"

#include <cmath>
#include <utility>

#include "common/error.h"

namespace lcrs::binary {

BinarizedFilters binarize_filters(const Tensor& w) {
  LCRS_CHECK(w.rank() >= 2, "binarize_filters expects rank >= 2");
  const std::int64_t out = w.dim(0);
  const std::int64_t per_filter = w.numel() / out;
  LCRS_CHECK(per_filter > 0, "empty filters");

  BinarizedFilters result{Tensor(w.shape()), Tensor(Shape{out})};
  for (std::int64_t f = 0; f < out; ++f) {
    const float* src = w.data() + f * per_filter;
    float* dst = result.sign.data() + f * per_filter;
    double l1 = 0.0;
    for (std::int64_t i = 0; i < per_filter; ++i) {
      l1 += static_cast<double>(std::fabs(src[i]));
      dst[i] = src[i] >= 0.0f ? 1.0f : -1.0f;
    }
    result.alpha[f] = static_cast<float>(l1 / static_cast<double>(per_filter));
  }
  return result;
}

PackedFilters pack_filters(const Tensor& w) {
  LCRS_CHECK(w.rank() >= 2, "pack_filters expects rank >= 2");
  BinarizedFilters bin = binarize_filters(w);
  return {BitMatrix::pack(bin.sign), std::move(bin.alpha)};
}

Tensor ste_clip(const Tensor& grad, const Tensor& x) {
  LCRS_CHECK(grad.same_shape(x), "ste_clip shape mismatch");
  Tensor out(grad.shape());
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    out[i] = (x[i] >= -1.0f && x[i] <= 1.0f) ? grad[i] : 0.0f;
  }
  return out;
}

Tensor eq6_weight_grad(const Tensor& grad_west, const Tensor& w,
                       const Tensor& alpha) {
  LCRS_CHECK(grad_west.same_shape(w), "eq6 shape mismatch");
  const std::int64_t out = w.dim(0);
  LCRS_CHECK(alpha.numel() == out, "eq6 alpha count mismatch");
  const std::int64_t per_filter = w.numel() / out;
  const float inv_n = 1.0f / static_cast<float>(per_filter);

  Tensor grad(w.shape());
  for (std::int64_t f = 0; f < out; ++f) {
    const float a = alpha[f];
    const float* g = grad_west.data() + f * per_filter;
    const float* wp = w.data() + f * per_filter;
    float* o = grad.data() + f * per_filter;
    for (std::int64_t i = 0; i < per_filter; ++i) {
      const float ste = (wp[i] >= -1.0f && wp[i] <= 1.0f) ? 1.0f : 0.0f;
      o[i] = g[i] * (inv_n + ste * a);
    }
  }
  return grad;
}

}  // namespace lcrs::binary
