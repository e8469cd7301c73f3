// Full-precision 2-D convolution layer (im2col + GEMM).
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace lcrs::nn {

/// Conv2d over NCHW input. Weight layout: [out_c, in_c, k, k]; bias [out_c].
class Conv2d : public Layer {
 public:
  /// `fixed_hw` pins the expected spatial size so geometry (and therefore
  /// FLOP accounting) is known at construction; forward() checks it.
  Conv2d(std::int64_t in_c, std::int64_t out_c, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, std::int64_t in_h,
         std::int64_t in_w, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string kind() const override { return "conv2d"; }
  std::int64_t flops_per_sample() const override;

  const ConvGeom& geometry() const { return geom_; }
  std::int64_t out_channels() const { return out_c_; }
  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }
  bool has_bias() const { return has_bias_; }

  /// Output shape for a batch of n samples.
  Shape output_shape(std::int64_t n) const {
    return Shape{n, out_c_, geom_.out_h(), geom_.out_w()};
  }

 private:
  ConvGeom geom_;
  std::int64_t out_c_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  // saved in forward(train) for the backward pass
};

}  // namespace lcrs::nn
