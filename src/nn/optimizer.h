// Gradient-descent optimizers.
//
// The paper trains with "gradient descent like Adam" (Sec. IV-B); both SGD
// with momentum and Adam are provided, plus a step-decay learning-rate
// schedule matching Algorithm 1's per-layer rate update hook.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nn/layer.h"

namespace lcrs::nn {

/// Interface: consumes accumulated Param::grad_buffer(), updates
/// Param::value, then the caller zeroes gradients for the next batch.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update step to every parameter.
  virtual void step(const std::vector<Param*>& params) = 0;

  virtual double learning_rate() const = 0;
  virtual void set_learning_rate(double lr) = 0;
};

/// Plain SGD with optional momentum and weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0, double weight_decay = 0.0);

  void step(const std::vector<Param*>& params) override;
  double learning_rate() const override { return lr_; }
  void set_learning_rate(double lr) override { lr_ = lr; }

 private:
  double lr_, momentum_, weight_decay_;
  std::unordered_map<Param*, Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8, double weight_decay = 0.0);

  void step(const std::vector<Param*>& params) override;
  double learning_rate() const override { return lr_; }
  void set_learning_rate(double lr) override { lr_ = lr; }

 private:
  double lr_, beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  std::unordered_map<Param*, Tensor> m_, v_;
};

/// Scales gradients so their global L2 norm is at most `max_norm`;
/// returns the pre-clip norm. Standard divergence guard for the joint
/// training runs.
double clip_grad_norm(const std::vector<Param*>& params, double max_norm);

/// Multiplies the learning rate by `gamma` every `step_epochs` epochs.
class StepDecay {
 public:
  StepDecay(std::int64_t step_epochs, double gamma)
      : step_epochs_(step_epochs), gamma_(gamma) {}

  /// Adjusts `opt` for the given (0-based) epoch about to start.
  void apply(Optimizer& opt, std::int64_t epoch, double base_lr) const {
    double lr = base_lr;
    for (std::int64_t e = step_epochs_; e <= epoch; e += step_epochs_) {
      lr *= gamma_;
    }
    opt.set_learning_rate(lr);
  }

 private:
  std::int64_t step_epochs_;
  double gamma_;
};

}  // namespace lcrs::nn
