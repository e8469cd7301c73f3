// Fully-connected layer.
#pragma once

#include "nn/layer.h"

namespace lcrs::nn {

/// Linear transform y = x W^T + b over a rank-2 [batch x in] input.
/// Weight layout: [out x in] so each output neuron's weights are a
/// contiguous row (matches the bit-packing layout in src/binary).
class Linear : public Layer {
 public:
  Linear(std::int64_t in, std::int64_t out, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;

  /// Caches W^T in [in x out] layout so eval-mode forward can run the
  /// row-major `gemm`, whose inner loop vectorizes over output neurons. At
  /// AVX2 a batch below gemm's small-batch crossover (the edge's usual
  /// batch of 1) streams each W^T row once; larger batches amortize
  /// weight tiles across rows. Call once after training settles;
  /// backward() invalidates the cache, so further training safely falls
  /// back to the untransposed path until prepared again, and
  /// nn::load_params rebuilds a prepared cache from the loaded weights.
  void prepare_inference();
  bool inference_prepared() const { return wt_fresh_; }
  void params_loaded() override;
  std::string kind() const override { return "linear"; }
  std::int64_t flops_per_sample() const override {
    return 2 * in_ * out_ + (has_bias_ ? out_ : 0);
  }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  std::int64_t in_, out_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
  Tensor weight_t_;        // W^T [in x out], valid only while wt_fresh_
  bool wt_fresh_ = false;  // cleared by backward(): optimizer steps follow
};

}  // namespace lcrs::nn
