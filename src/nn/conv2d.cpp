#include "nn/conv2d.h"

#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

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
  Tensor out = conv2d(input, geom_, weight_.value,
                      has_bias_ ? &bias_.value : nullptr);
  if (train) cached_input_ = input;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.numel() > 0,
             "conv2d backward without cached forward");
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
