#include "nn/pooling.h"

#include <limits>

#include "tensor/tensor_ops.h"

namespace lcrs::nn {

namespace {
std::int64_t pooled_extent(std::int64_t in, std::int64_t k, std::int64_t s) {
  LCRS_CHECK(in >= k, "pool window " << k << " larger than input " << in);
  return (in - k) / s + 1;
}
}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
  LCRS_CHECK(kernel > 0 && stride > 0, "pool kernel/stride must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "maxpool expects NCHW");
  // Eval skips the argmax bookkeeping; the shared kernel runs the same
  // `v > best` scan, so both paths return the same values bit for bit.
  if (!train) return max_pool2d(input, kernel_, stride_);
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  Tensor out{Shape{n, c, oh, ow}};
  input_shape_ = input.shape();
  argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  float* dst = out.data();
  std::int64_t oi = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (b * c + ch) * h * w;
      const std::int64_t plane_base = (b * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = y * stride_ + ky;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = x * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          dst[oi] = best;
          argmax_[static_cast<std::size_t>(oi)] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  LCRS_CHECK(!argmax_.empty(), "maxpool backward without cached forward");
  LCRS_CHECK(grad_output.numel() ==
                 static_cast<std::int64_t>(argmax_.size()),
             "maxpool grad_output numel mismatch");
  Tensor grad_input{input_shape_};
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[static_cast<std::size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() == 4, "gap expects NCHW");
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t plane = input.dim(2) * input.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor out{Shape{n, c}};
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = input.data() + (b * c + ch) * plane;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
      out.at2(b, ch) = acc * inv;
    }
  }
  if (train) input_shape_ = input.shape();
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  LCRS_CHECK(input_shape_.rank() == 4, "gap backward without cached forward");
  const std::int64_t n = input_shape_[0], c = input_shape_[1];
  const std::int64_t plane = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor grad_input{input_shape_};
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at2(b, ch) * inv;
      float* p = grad_input.data() + (b * c + ch) * plane;
      for (std::int64_t i = 0; i < plane; ++i) p[i] = g;
    }
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool train) {
  LCRS_CHECK(input.rank() >= 2, "flatten expects rank >= 2");
  if (train) input_shape_ = input.shape();
  return input.reshaped(Shape{input.dim(0), input.numel() / input.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  LCRS_CHECK(input_shape_.rank() >= 2,
             "flatten backward without cached forward");
  return grad_output.reshaped(input_shape_);
}

}  // namespace lcrs::nn
