// Binary convolution layer (paper Eq. 4, Algorithm 1).
//
// Training keeps full-precision master weights; the forward pass uses
// alpha * sign(W) on sign(I) with the spatial scale K, and the backward
// pass uses the straight-through estimator (Eq. 5) plus the Eq. 6 weight
// gradient. The layer holds no packed weights: export packs them with
// pack_filters, and the browser runs the same arithmetic bit for bit
// through xnor_conv2d.
#pragma once

#include "binary/binarize.h"
#include "nn/layer.h"
#include "tensor/im2col.h"

namespace lcrs::binary {

class BinaryConv2d : public nn::Layer {
 public:
  BinaryConv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, std::int64_t in_h,
               std::int64_t in_w, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Param*> params() override { return {&weight_}; }
  std::string kind() const override { return "binary_conv2d"; }
  std::int64_t flops_per_sample() const override;

  const ConvGeom& geometry() const { return geom_; }
  std::int64_t out_channels() const { return out_c_; }
  nn::Param& weight() { return weight_; }

 private:
  Tensor reference_forward(const Tensor& input, bool train);

  ConvGeom geom_;
  std::int64_t out_c_;
  nn::Param weight_;  // full-precision master weights [out_c, in_c, k, k]

  // Training caches.
  Tensor cached_input_;
  Tensor cached_sign_input_;
  Tensor cached_K_;       // [N, oh, ow]
  BinarizedFilters cached_bin_;
};

}  // namespace lcrs::binary
