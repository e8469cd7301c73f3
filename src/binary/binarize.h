// Weight binarization math (XNOR-Net style, paper Sec. IV-B).
//
// A weight filter W is approximated by alpha * sign(W), where
// alpha = ||W||_l1 / n is the per-filter scaling factor (Algorithm 1,
// line 9). Gradients flow through sign() with the straight-through
// estimator clipped to |x| <= 1 (Eq. 5), and the weight gradient uses the
// paper's Eq. 6 transform.
#pragma once

#include "binary/bitmatrix.h"
#include "tensor/tensor.h"

namespace lcrs::binary {

/// sign(W) together with the per-filter scale alpha. For conv weights
/// [out_c, in_c, k, k] there is one alpha per output filter; for linear
/// weights [out, in] one per output neuron.
struct BinarizedFilters {
  Tensor sign;    // same shape as W, entries in {-1, +1}
  Tensor alpha;   // [out] scale factors, alpha_i = mean |W_i|
};

/// Binarizes along the outermost dimension of `w` (one filter per row).
BinarizedFilters binarize_filters(const Tensor& w);

/// sign(W) bit-packed one filter per row, with the same alpha: the
/// weights a binary layer ships in the browser blob and xnor_conv2d /
/// xnor_linear run.
struct PackedFilters {
  BitMatrix bits;  // [out x elements per filter]
  Tensor alpha;    // [out]
};

/// Packs `w` for the XNOR kernels. A pure function of the weights:
/// callers pack again after the weights change.
PackedFilters pack_filters(const Tensor& w);

/// Straight-through estimator of d sign(x)/dx: 1 when |x| <= 1 else 0
/// (Eq. 5). Applied elementwise: out[i] = grad[i] * 1_{|x[i]| <= 1}.
Tensor ste_clip(const Tensor& grad, const Tensor& x);

/// Paper Eq. 6: transforms the gradient w.r.t. the *estimated* filters
/// W~ = alpha * sign(W) into the gradient w.r.t. the full-precision master
/// weights: dW = dW~ * (1/n + ste(W) * alpha), with n = elements per
/// filter and alpha broadcast per outer filter.
Tensor eq6_weight_grad(const Tensor& grad_west, const Tensor& w,
                       const Tensor& alpha);

}  // namespace lcrs::binary
