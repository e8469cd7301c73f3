#include "binary/binary_linear.h"

#include "binary/input_scale.h"
#include "binary/xnor_gemm.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace lcrs::binary {

BinaryLinear::BinaryLinear(std::int64_t in, std::int64_t out, Rng& rng,
                           bool bias)
    : in_(in),
      out_(out),
      has_bias_(bias),
      weight_("binary_linear.weight",
              Tensor::kaiming(Shape{out, in}, rng, in)),
      bias_("binary_linear.bias", Tensor::zeros(Shape{out})) {
  LCRS_CHECK(in > 0 && out > 0, "binary linear dims must be positive");
}

Tensor BinaryLinear::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 2 && input.dim(1) == in_,
             "binary linear expects [batch x " << in_ << "], got "
                                               << input.shape().to_string());
  const std::int64_t n = input.dim(0);
  const Tensor sign_input = sign(input);
  const Tensor beta = input_scale_rows(input);
  BinarizedFilters bin = binarize_filters(weight_.value);

  Tensor out{Shape{n, out_}};
  gemm_bt(sign_input.data(), bin.sign.data(), out.data(), n, in_, out_);
  for (std::int64_t b = 0; b < n; ++b) {
    float* row = out.data() + b * out_;
    const float bv = beta[b];
    for (std::int64_t o = 0; o < out_; ++o) {
      row[o] *= bv * bin.alpha[o];
      if (has_bias_) row[o] += bias_.value[o];
    }
  }

  if (train) {
    cached_input_ = input;
    cached_sign_input_ = sign_input;
    cached_beta_ = beta;
    cached_bin_ = std::move(bin);
    packed_.reset();
  }
  return out;
}

Tensor BinaryLinear::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.numel() > 0,
             "binary linear backward without cached forward");
  const std::int64_t n = cached_input_.dim(0);
  LCRS_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                 grad_output.dim(1) == out_,
             "binary linear grad_output shape mismatch");

  // Fold the constant beta/alpha scales in; bias sees the raw gradient.
  Tensor g_eff{Shape{n, out_}};
  float* bias_grad = has_bias_ ? bias_.grad_buffer().data() : nullptr;
  for (std::int64_t b = 0; b < n; ++b) {
    const float bv = cached_beta_[b];
    const float* g = grad_output.data() + b * out_;
    float* o = g_eff.data() + b * out_;
    for (std::int64_t oc = 0; oc < out_; ++oc) {
      o[oc] = g[oc] * bv * cached_bin_.alpha[oc];
      if (has_bias_) bias_grad[oc] += g[oc];
    }
  }

  // dW~ [out x in] = g_eff^T [out x n] . sign(x) [n x in]
  Tensor grad_west{Shape{out_, in_}};
  gemm_at(g_eff.data(), cached_sign_input_.data(), grad_west.data(), out_, n,
          in_);
  add_inplace(weight_.grad_buffer(),
              eq6_weight_grad(grad_west, weight_.value, cached_bin_.alpha));

  // d sign(x) [n x in] = g_eff [n x out] . sign(W) [out x in]
  Tensor grad_sign_input{Shape{n, in_}};
  gemm(g_eff.data(), cached_bin_.sign.data(), grad_sign_input.data(), n,
       out_, in_);
  return ste_clip(grad_sign_input, cached_input_);
}

std::vector<nn::Param*> BinaryLinear::params() {
  std::vector<nn::Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

void BinaryLinear::prepare_inference() {
  BinarizedFilters bin = binarize_filters(weight_.value);
  packed_ = Packed{BitMatrix::pack(bin.sign.data(), out_, in_),
                   std::move(bin.alpha)};
}

Tensor BinaryLinear::forward_fast(const Tensor& input) const {
  LCRS_CHECK(packed_.has_value(),
             "forward_fast requires prepare_inference()");
  return xnor_linear(input, packed_->weight_bits, packed_->alpha,
                     has_bias_ ? &bias_.value : nullptr);
}

const BitMatrix& BinaryLinear::packed_weight_bits() const {
  LCRS_CHECK(packed_.has_value(), "packed access before prepare_inference");
  return packed_->weight_bits;
}

const Tensor& BinaryLinear::packed_alpha() const {
  LCRS_CHECK(packed_.has_value(), "packed access before prepare_inference");
  return packed_->alpha;
}

std::int64_t BinaryLinear::binary_weight_bytes() const {
  const std::int64_t words_per_row = (in_ + 63) / 64;
  std::int64_t bytes = out_ * words_per_row * 8 + out_ * 4;
  if (has_bias_) bytes += out_ * 4;
  return bytes;
}

}  // namespace lcrs::binary
