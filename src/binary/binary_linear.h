// Binary fully-connected layer.
//
// FC analogue of BinaryConv2d: y = (sign(x) . sign(W)^T) * beta * alpha
// with beta the per-sample input magnitude and alpha the per-neuron weight
// magnitude, plus an optional full-precision bias. Same STE/Eq. 6 backward;
// export packs the weights with pack_filters for xnor_linear, which
// reproduces forward() bit for bit.
#pragma once

#include "binary/binarize.h"
#include "nn/layer.h"

namespace lcrs::binary {

class BinaryLinear : public nn::Layer {
 public:
  BinaryLinear(std::int64_t in, std::int64_t out, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<nn::Param*> params() override;
  std::string kind() const override { return "binary_linear"; }
  std::int64_t flops_per_sample() const override {
    return 2 * in_ * out_ + (has_bias_ ? out_ : 0);
  }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  nn::Param& weight() { return weight_; }
  bool has_bias() const { return has_bias_; }

  const Tensor& bias_values() const { return bias_.value; }

 private:
  std::int64_t in_, out_;
  bool has_bias_;
  nn::Param weight_;  // [out x in] master weights
  nn::Param bias_;

  Tensor cached_input_;
  Tensor cached_sign_input_;
  Tensor cached_beta_;  // [batch]
  BinarizedFilters cached_bin_;
};

}  // namespace lcrs::binary
