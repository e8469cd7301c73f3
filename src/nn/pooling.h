// Spatial pooling layers over NCHW tensors.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace lcrs::nn {

/// Max pooling with square window. Records argmax indices for backward.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "maxpool"; }

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::int64_t kernel_, stride_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

/// Collapses each channel's spatial plane to its mean: [N,C,H,W] -> [N,C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "gap"; }

 private:
  Shape input_shape_;
};

/// Reshapes [N,C,H,W] to [N, C*H*W]; identity on data.
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string kind() const override { return "flatten"; }

 private:
  Shape input_shape_;
};

}  // namespace lcrs::nn
