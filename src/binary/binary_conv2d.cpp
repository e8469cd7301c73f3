#include "binary/binary_conv2d.h"

#include <vector>

#include "binary/input_scale.h"
#include "binary/xnor_gemm.h"
#include "common/parallel.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace lcrs::binary {

BinaryConv2d::BinaryConv2d(std::int64_t in_c, std::int64_t out_c,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, std::int64_t in_h,
                           std::int64_t in_w, Rng& rng)
    : geom_{in_c, in_h, in_w, kernel, stride, pad},
      out_c_(out_c),
      weight_("binary_conv.weight",
              Tensor::kaiming(Shape{out_c, in_c, kernel, kernel}, rng,
                              in_c * kernel * kernel)) {
  LCRS_CHECK(out_c > 0, "binary conv out_c must be positive");
  geom_.validate();
}

Tensor BinaryConv2d::reference_forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4 && input.dim(1) == geom_.in_c &&
                 input.dim(2) == geom_.in_h && input.dim(3) == geom_.in_w,
             "binary conv input " << input.shape().to_string()
                                  << " mismatches geometry");
  const std::int64_t n = input.dim(0);
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t patch = geom_.patch_size();
  const std::int64_t in_image = geom_.in_c * geom_.in_h * geom_.in_w;

  const Tensor sign_input = sign(input);
  const Tensor k = input_scale_K(input, geom_);
  BinarizedFilters bin = binarize_filters(weight_.value);

  Tensor out{Shape{n, out_c_, oh, ow}};
  parallel_for(n, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float> cols(static_cast<std::size_t>(patch * pixels));
    for (std::int64_t b = b0; b < b1; ++b) {
      // Pad with +1 (sign(0)) so this reference path agrees exactly with
      // the bit-packed XNOR path, which has no zero symbol.
      im2col(sign_input.data() + b * in_image, geom_, cols.data(),
             /*pad_value=*/1.0f);
      gemm(bin.sign.data(), cols.data(), out.data() + b * out_c_ * pixels,
           out_c_, patch, pixels);
      const float* kb = k.data() + b * pixels;
      float* obase = out.data() + b * out_c_ * pixels;
      for (std::int64_t oc = 0; oc < out_c_; ++oc) {
        const float a = bin.alpha[oc];
        float* orow = obase + oc * pixels;
        for (std::int64_t p = 0; p < pixels; ++p) orow[p] *= a * kb[p];
      }
    }
  });

  if (train) {
    cached_input_ = input;
    cached_sign_input_ = sign_input;
    cached_K_ = k;
    cached_bin_ = std::move(bin);
    packed_.reset();  // weights will change; invalidate the fast path
  }
  return out;
}

Tensor BinaryConv2d::forward(const Tensor& input, bool train) {
  return reference_forward(input, train);
}

Tensor BinaryConv2d::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.numel() > 0,
             "binary conv backward without cached forward");
  const Tensor& input = cached_input_;
  const std::int64_t n = input.dim(0);
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t patch = geom_.patch_size();
  const std::int64_t in_image = geom_.in_c * geom_.in_h * geom_.in_w;
  LCRS_CHECK(grad_output.shape() == (Shape{n, out_c_, oh, ow}),
             "binary conv grad_output shape mismatch");

  // Fold the (constant) K and alpha scales into the output gradient.
  Tensor g_conv(grad_output.shape());
  for (std::int64_t b = 0; b < n; ++b) {
    const float* kb = cached_K_.data() + b * pixels;
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      const float a = cached_bin_.alpha[oc];
      const float* g = grad_output.data() + (b * out_c_ + oc) * pixels;
      float* o = g_conv.data() + (b * out_c_ + oc) * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) o[p] = g[p] * a * kb[p];
    }
  }

  Tensor grad_west{weight_.value.shape()};  // d L / d (sign weights)
  Tensor grad_sign_input{input.shape()};
  std::vector<float> cols(static_cast<std::size_t>(patch * pixels));
  std::vector<float> dcols(static_cast<std::size_t>(patch * pixels));
  for (std::int64_t b = 0; b < n; ++b) {
    const float* gout = g_conv.data() + b * out_c_ * pixels;
    im2col(cached_sign_input_.data() + b * in_image, geom_, cols.data(),
           /*pad_value=*/1.0f);
    gemm_bt(gout, cols.data(), grad_west.data(), out_c_, pixels, patch, 1.0f);
    gemm_at(cached_bin_.sign.data(), gout, dcols.data(), patch, out_c_,
            pixels);
    col2im(dcols.data(), geom_, grad_sign_input.data() + b * in_image);
  }

  // Eq. 6 for the master weights; Eq. 5 STE for the input.
  add_inplace(weight_.grad_buffer(),
              eq6_weight_grad(grad_west, weight_.value, cached_bin_.alpha));
  return ste_clip(grad_sign_input, input);
}

std::int64_t BinaryConv2d::flops_per_sample() const {
  // Equivalent MAC work of the convolution; the cost model divides by the
  // binary speedup factor when pricing devices.
  return 2 * out_c_ * geom_.patch_size() * geom_.out_h() * geom_.out_w();
}

void BinaryConv2d::prepare_inference() {
  BinarizedFilters bin = binarize_filters(weight_.value);
  const std::int64_t patch = geom_.patch_size();
  packed_ = Packed{
      BitMatrix::pack(bin.sign.data(), out_c_, patch),
      std::move(bin.alpha),
  };
}

Tensor BinaryConv2d::forward_fast(const Tensor& input) const {
  LCRS_CHECK(packed_.has_value(),
             "forward_fast requires prepare_inference()");
  return xnor_conv2d(input, geom_, packed_->weight_bits, packed_->alpha);
}

const BitMatrix& BinaryConv2d::packed_weight_bits() const {
  LCRS_CHECK(packed_.has_value(), "packed access before prepare_inference");
  return packed_->weight_bits;
}

const Tensor& BinaryConv2d::packed_alpha() const {
  LCRS_CHECK(packed_.has_value(), "packed access before prepare_inference");
  return packed_->alpha;
}

std::int64_t BinaryConv2d::binary_weight_bytes() const {
  const std::int64_t patch = geom_.patch_size();
  const std::int64_t words_per_row = (patch + 63) / 64;
  return out_c_ * words_per_row * 8    // packed sign bits
         + out_c_ * 4;                 // float alpha per filter
}

}  // namespace lcrs::binary
