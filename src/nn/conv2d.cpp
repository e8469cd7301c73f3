#include "nn/conv2d.h"

#include <vector>

#include "common/parallel.h"
#include "tensor/gemm.h"

namespace lcrs::nn {

Conv2d::Conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, std::int64_t in_h,
               std::int64_t in_w, Rng& rng, bool bias)
    : geom_{in_c, in_h, in_w, kernel, stride, pad},
      out_c_(out_c),
      has_bias_(bias),
      weight_("conv.weight",
              Tensor::kaiming(Shape{out_c, in_c, kernel, kernel}, rng,
                              in_c * kernel * kernel)),
      bias_("conv.bias", Tensor::zeros(Shape{out_c})) {
  LCRS_CHECK(out_c > 0, "conv out_c must be positive");
  geom_.validate();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "conv2d expects NCHW input, got rank "
                                    << input.rank());
  LCRS_CHECK(input.dim(1) == geom_.in_c && input.dim(2) == geom_.in_h &&
                 input.dim(3) == geom_.in_w,
             "conv2d input " << input.shape().to_string()
                             << " does not match geometry C=" << geom_.in_c
                             << " H=" << geom_.in_h << " W=" << geom_.in_w);
  const std::int64_t n = input.dim(0);
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t patch = geom_.patch_size();
  const std::int64_t in_image = geom_.in_c * geom_.in_h * geom_.in_w;

  Tensor out{Shape{n, out_c_, oh, ow}};
  const auto add_bias = [&](std::int64_t b) {
    if (!has_bias_) return;
    float* obase = out.data() + b * out_c_ * pixels;
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      const float bv = bias_.value[oc];
      float* orow = obase + oc * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) orow[p] += bv;
    }
  };

  if (!train && packed_fresh_) {
    // Prepared serving path: lower the whole batch in one im2col pass,
    // then run the panel-packed GEMM per sample. Chunked so the lowered
    // block stays bounded (~8 MiB) at large batch sizes. Each output
    // element is still one ascending-k chain over (weight row, patch),
    // so batch rows are bit-identical to the same sample served alone.
    const std::int64_t block = patch * pixels;
    const std::int64_t chunk = std::max<std::int64_t>(
        1, (8ll << 20) / (block * static_cast<std::int64_t>(sizeof(float))));
    std::vector<float> cols(static_cast<std::size_t>(
        std::min<std::int64_t>(n > 0 ? n : 1, chunk) * block));
    for (std::int64_t s0 = 0; s0 < n; s0 += chunk) {
      const std::int64_t s1 = std::min<std::int64_t>(n, s0 + chunk);
      im2col_batch(input.data() + s0 * in_image, s1 - s0, geom_,
                   cols.data());
      for (std::int64_t b = s0; b < s1; ++b) {
        gemm_packed_a(packed_weight_, cols.data() + (b - s0) * block,
                      out.data() + b * out_c_ * pixels, pixels);
        add_bias(b);
      }
    }
    return out;
  }

  parallel_for(n, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float> cols(static_cast<std::size_t>(patch * pixels));
    for (std::int64_t b = b0; b < b1; ++b) {
      im2col(input.data() + b * in_image, geom_, cols.data());
      // out[b] = W[out_c x patch] * cols[patch x pixels]
      gemm(weight_.value.data(), cols.data(),
           out.data() + b * out_c_ * pixels, out_c_, patch, pixels);
      add_bias(b);
    }
  });

  if (train) cached_input_ = input;
  return out;
}

void Conv2d::prepare_inference() {
  packed_weight_ =
      pack_a_panels(weight_.value.data(), out_c_, geom_.patch_size());
  packed_fresh_ = true;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.numel() > 0,
             "conv2d backward without cached forward");
  // Training resumed: the optimizer will move the weights, so the packed
  // panels are stale from here on (same policy as Linear::backward).
  packed_fresh_ = false;
  const Tensor& input = cached_input_;
  const std::int64_t n = input.dim(0);
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t patch = geom_.patch_size();
  const std::int64_t in_image = geom_.in_c * geom_.in_h * geom_.in_w;
  LCRS_CHECK(grad_output.shape() == (Shape{n, out_c_, oh, ow}),
             "conv2d grad_output shape mismatch: "
                 << grad_output.shape().to_string());

  Tensor grad_input{input.shape()};
  // Serial over batch: weight gradient accumulation is a shared sum and
  // the single-core target gains nothing from sharding it.
  std::vector<float> cols(static_cast<std::size_t>(patch * pixels));
  std::vector<float> dcols(static_cast<std::size_t>(patch * pixels));
  float* weight_grad = weight_.grad_buffer().data();
  float* bias_grad = has_bias_ ? bias_.grad_buffer().data() : nullptr;
  for (std::int64_t b = 0; b < n; ++b) {
    const float* gout = grad_output.data() + b * out_c_ * pixels;
    im2col(input.data() + b * in_image, geom_, cols.data());

    // dW += gout[out_c x pixels] * cols^T[pixels x patch]
    gemm_bt(gout, cols.data(), weight_grad, out_c_, pixels, patch, 1.0f);

    // dcols = W^T[patch x out_c] * gout[out_c x pixels]
    gemm_at(weight_.value.data(), gout, dcols.data(), patch, out_c_, pixels);
    col2im(dcols.data(), geom_, grad_input.data() + b * in_image);

    if (has_bias_) {
      for (std::int64_t oc = 0; oc < out_c_; ++oc) {
        const float* grow = gout + oc * pixels;
        float acc = 0.0f;
        for (std::int64_t p = 0; p < pixels; ++p) acc += grow[p];
        bias_grad[oc] += acc;
      }
    }
  }
  return grad_input;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

std::int64_t Conv2d::flops_per_sample() const {
  // One MAC = 2 flops; plus bias adds.
  const std::int64_t pixels = geom_.out_h() * geom_.out_w();
  std::int64_t f = 2 * out_c_ * geom_.patch_size() * pixels;
  if (has_bias_) f += out_c_ * pixels;
  return f;
}

}  // namespace lcrs::nn
