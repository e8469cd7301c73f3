#include "nn/activations.h"

#include <cmath>

#include "common/simd_math.h"
#include "tensor/tensor_ops.h"

namespace lcrs::nn {

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor out = relu(input);
  if (train) cached_input_ = input;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.same_shape(grad_output),
             "relu backward shape mismatch");
  Tensor grad(grad_output.shape());
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    grad[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool train) {
  // Dispatched kernel: exact std::tanh at the scalar level, the vectorized
  // approximation (see common/simd_math.h) on vector levels. Elementwise
  // purity keeps batch-composition invariance intact at any level.
  Tensor out = input;
  simd::tanh_inplace(out.data(), out.numel());
  if (train) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_output_.same_shape(grad_output),
             "tanh backward shape mismatch");
  Tensor grad(grad_output.shape());
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] = grad_output[i] * (1.0f - y * y);
  }
  return grad;
}

Tensor HardTanh::forward(const Tensor& input, bool train) {
  Tensor out = hard_tanh(input);
  if (train) cached_input_ = input;
  return out;
}

Tensor HardTanh::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_input_.same_shape(grad_output),
             "hardtanh backward shape mismatch");
  Tensor grad(grad_output.shape());
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    const float x = cached_input_[i];
    grad[i] = (x >= -1.0f && x <= 1.0f) ? grad_output[i] : 0.0f;
  }
  return grad;
}

}  // namespace lcrs::nn
