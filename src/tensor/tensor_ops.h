// Elementwise and reduction operations on tensors.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace lcrs {

/// out = a + b (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// a += b in place.
void add_inplace(Tensor& a, const Tensor& b);

/// a += alpha * b in place (axpy).
void axpy_inplace(Tensor& a, float alpha, const Tensor& b);

/// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);

/// out = a * b elementwise (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);

/// out = a * s.
Tensor scale(const Tensor& a, float s);
void scale_inplace(Tensor& a, float s);

/// Sum of all elements.
double sum(const Tensor& a);

/// Mean of all elements.
double mean(const Tensor& a);

/// Mean of |x| over all elements (the alpha factor of XNOR-Net).
double mean_abs(const Tensor& a);

/// Max element value.
float max_value(const Tensor& a);

/// Index of the max element in a flat view.
std::int64_t argmax(const Tensor& a);

/// Row-wise argmax for a rank-2 [rows x cols] tensor.
std::vector<std::int64_t> argmax_rows(const Tensor& logits);

/// Numerically stable row-wise softmax of a rank-2 [rows x cols] tensor.
Tensor softmax_rows(const Tensor& logits);

/// Elementwise sign with sign(0) = +1, matching XNOR-Net binarization.
Tensor sign(const Tensor& a);

/// Elementwise `x > 0 ? x : 0` (NaN and -0 map to +0). The one ReLU
/// kernel behind nn::ReLU and the webinfer activation op.
Tensor relu(const Tensor& a);

/// Elementwise clamp to [-1, 1]; NaN passes through. The one hard-tanh
/// kernel behind nn::HardTanh and the webinfer activation op.
Tensor hard_tanh(const Tensor& a);

/// Eval-mode max pooling of an NCHW tensor: square `kernel` window,
/// `stride` step, no padding. Each output is a `v > best` scan from -inf
/// in row-major window order, so NaN never wins. Shared by
/// nn::MaxPool2d's eval path and the webinfer maxpool op.
Tensor max_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);

/// L1 norm (sum of |x|).
double l1_norm(const Tensor& a);

/// L2 norm.
double l2_norm(const Tensor& a);

/// Largest absolute difference between two same-shaped tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// Concatenates tensors along the outermost dimension: parts with shapes
/// [n_i, d1, ...] (identical inner dims, identical rank >= 1) become one
/// [sum(n_i), d1, ...] tensor. The inverse of slice_outer: each part's
/// rows are copied verbatim, so stacking then slicing is bit-identical.
/// Used by the edge batcher to coalesce per-request conv1 feature maps
/// into one batched forward.
Tensor stack_outer(const std::vector<Tensor>& parts);

}  // namespace lcrs
