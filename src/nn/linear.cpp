#include "nn/linear.h"

#include "tensor/gemm.h"

namespace lcrs::nn {

Linear::Linear(std::int64_t in, std::int64_t out, Rng& rng, bool bias)
    : in_(in),
      out_(out),
      has_bias_(bias),
      weight_("linear.weight", Tensor::kaiming(Shape{out, in}, rng, in)),
      bias_("linear.bias", Tensor::zeros(Shape{out})) {
  LCRS_CHECK(in > 0 && out > 0, "linear dims must be positive");
}

Tensor Linear::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 2 && input.dim(1) == in_,
             "linear expects [batch x " << in_ << "], got "
                                        << input.shape().to_string());
  const std::int64_t n = input.dim(0);
  // y[n x out] = x[n x in] * W^T (W stored [out x in])
  Tensor out{Shape{n, out_}};
  if (!train && wt_fresh_) {
    // Prepared eval path: W^T is cached in row-major [in x out], so the
    // GEMM's inner loop runs contiguously over output neurons; a small
    // batch streams W^T once, a larger one reuses weight tiles per row.
    gemm(input.data(), weight_t_.data(), out.data(), n, in_, out_);
  } else {
    gemm_bt(input.data(), weight_.value.data(), out.data(), n, in_, out_);
  }
  if (has_bias_) {
    for (std::int64_t b = 0; b < n; ++b) {
      float* row = out.data() + b * out_;
      for (std::int64_t o = 0; o < out_; ++o) row[o] += bias_.value[o];
    }
  }
  if (train) cached_input_ = input;
  return out;
}

void Linear::prepare_inference() {
  weight_t_ = Tensor{Shape{in_, out_}};
  const float* w = weight_.value.data();
  float* wt = weight_t_.data();
  for (std::int64_t o = 0; o < out_; ++o) {
    for (std::int64_t i = 0; i < in_; ++i) wt[i * out_ + o] = w[o * in_ + i];
  }
  wt_fresh_ = true;
}

void Linear::params_loaded() {
  // A prepared layer stays on the prepared path, now with the loaded
  // weights; an unprepared one stays unprepared.
  if (!wt_fresh_) return;
  wt_fresh_ = false;
  prepare_inference();
}

Tensor Linear::backward(const Tensor& grad_output) {
  // A backward pass means an optimizer step is coming; the cached
  // transpose would silently serve stale weights after it.
  wt_fresh_ = false;
  LCRS_CHECK(cached_input_.numel() > 0,
             "linear backward without cached forward");
  const Tensor& input = cached_input_;
  const std::int64_t n = input.dim(0);
  LCRS_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_,
             "linear grad_output shape mismatch");

  // dW[out x in] += gout^T[out x n] * x[n x in]
  gemm_at(grad_output.data(), input.data(), weight_.grad_buffer().data(),
          out_, n, in_, 1.0f);
  if (has_bias_) {
    Tensor& bias_grad = bias_.grad_buffer();
    for (std::int64_t b = 0; b < n; ++b) {
      const float* row = grad_output.data() + b * out_;
      for (std::int64_t o = 0; o < out_; ++o) bias_grad[o] += row[o];
    }
  }
  // dx[n x in] = gout[n x out] * W[out x in]
  Tensor grad_input{Shape{n, in_}};
  gemm(grad_output.data(), weight_.value.data(), grad_input.data(), n, out_,
       in_);
  return grad_input;
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace lcrs::nn
