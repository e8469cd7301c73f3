// Layer abstraction for the training framework.
//
// This is a deliberately simple layer-graph design (no tape autograd):
// each layer caches whatever it needs in forward() and consumes it in
// backward(). That matches the paper's networks, which are feed-forward
// chains plus ResNet blocks (handled as composite layers), and keeps the
// whole framework small and auditable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace lcrs::nn {

/// A trainable parameter: value plus accumulated gradient of the same
/// shape. The gradient is allocated, as zeros, on first use (zero_grad()
/// or a backward accumulation), so a network that only serves holds no
/// gradient memory. grad_buffer() is the only way to write the gradient.
/// Layers own their Params; optimizers mutate them through
/// Layer::params().
class Param {
 public:
  std::string name;
  Tensor value;

  Param(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)) {}

  /// The accumulated gradient; empty (numel 0) until grad_buffer() first
  /// runs.
  const Tensor& grad() const { return grad_; }
  /// The gradient for writing, allocated as zeros on first use.
  Tensor& grad_buffer() {
    if (!grad_.same_shape(value)) grad_ = Tensor(value.shape());
    return grad_;
  }
  void zero_grad() { grad_buffer().fill(0.0f); }
  std::int64_t numel() const { return value.numel(); }

 private:
  Tensor grad_;
};

/// Interface implemented by every network building block.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. When `train` is true the layer may cache
  /// activations for backward() and apply train-only behaviour (dropout,
  /// batch-norm batch statistics).
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Propagates the loss gradient. Must be called after a forward() with
  /// train == true; accumulates into each Param::grad_buffer() and
  /// returns the gradient w.r.t. the layer input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the lifetime of the layer.
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable state that must persist with the model (e.g.
  /// batch-norm running statistics). Saved/restored by nn::save_params /
  /// nn::load_params alongside the parameters.
  struct NamedState {
    std::string name;
    Tensor* tensor;
  };
  virtual std::vector<NamedState> state_tensors() { return {}; }

  /// Called by nn::load_params on every layer of the loaded tree once the
  /// new parameters and state are in place. A layer that caches values
  /// derived from its weights rebuilds them here.
  virtual void params_loaded() {}

  /// Direct child layers of composite layers (Sequential, ResidualBlock);
  /// empty for leaves. Enables generic model-tree walks (e.g. the int8
  /// payload accounting).
  virtual std::vector<Layer*> children() { return {}; }

  /// Short type tag used in logs and model accounting (e.g. "conv2d").
  virtual std::string kind() const = 0;

  /// Multiply-accumulate count for one sample through this layer, used by
  /// the latency cost model. Stateless layers may return 0.
  virtual std::int64_t flops_per_sample() const { return 0; }

  /// Bytes this layer contributes to a serialized full-precision model.
  std::int64_t param_bytes() const {
    std::int64_t n = 0;
    for (const Param* p : const_cast<Layer*>(this)->params()) {
      n += p->numel() * static_cast<std::int64_t>(sizeof(float));
    }
    return n;
  }

  std::int64_t param_count() const {
    std::int64_t n = 0;
    for (const Param* p : const_cast<Layer*>(this)->params()) n += p->numel();
    return n;
  }

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace lcrs::nn
