#include "nn/optimizer.h"

#include <cmath>

#include "common/error.h"
#include "common/numerics.h"

namespace lcrs::nn {

namespace {

// Optimizer-side numerics hooks: the incoming gradient is scanned before
// it is consumed and the parameter after it is updated, so a blow-up is
// attributed to the param by name and to the right side of the step.
void check_step_inputs(const std::vector<Param*>& params) {
  if (!numerics::enabled()) return;
  for (const Param* p : params) {
    numerics::check_values("step gradient", "param " + p->name,
                           p->grad().data(), p->grad().numel());
  }
}

void check_step_outputs(const std::vector<Param*>& params) {
  if (!numerics::enabled()) return;
  for (const Param* p : params) {
    numerics::check_values("updated value", "param " + p->name,
                           p->value.data(), p->value.numel());
  }
}

}  // namespace

Sgd::Sgd(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  LCRS_CHECK(lr > 0.0, "learning rate must be positive");
  LCRS_CHECK(momentum >= 0.0 && momentum < 1.0, "momentum must be in [0,1)");
}

void Sgd::step(const std::vector<Param*>& params) {
  check_step_inputs(params);
  for (Param* p : params) {
    Tensor& val = p->value;
    Tensor& grad = p->grad_buffer();
    if (momentum_ > 0.0) {
      auto [it, inserted] = velocity_.try_emplace(p, val.shape());
      Tensor& vel = it->second;
      (void)inserted;
      for (std::int64_t i = 0; i < val.numel(); ++i) {
        const float g =
            grad[i] + static_cast<float>(weight_decay_) * val[i];
        vel[i] = static_cast<float>(momentum_) * vel[i] + g;
        val[i] -= static_cast<float>(lr_) * vel[i];
      }
    } else {
      for (std::int64_t i = 0; i < val.numel(); ++i) {
        const float g =
            grad[i] + static_cast<float>(weight_decay_) * val[i];
        val[i] -= static_cast<float>(lr_) * g;
      }
    }
  }
  check_step_outputs(params);
}

double clip_grad_norm(const std::vector<Param*>& params, double max_norm) {
  LCRS_CHECK(max_norm > 0.0, "clip_grad_norm needs max_norm > 0");
  double sq = 0.0;
  for (const Param* p : params) {
    const Tensor& grad = p->grad();
    for (std::int64_t i = 0; i < grad.numel(); ++i) {
      const double g = static_cast<double>(grad[i]);
      sq += g * g;
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Param* p : params) {
      Tensor& grad = p->grad_buffer();
      for (std::int64_t i = 0; i < grad.numel(); ++i) grad[i] *= scale;
    }
  }
  return norm;
}

Adam::Adam(double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  LCRS_CHECK(lr > 0.0, "learning rate must be positive");
}

void Adam::step(const std::vector<Param*>& params) {
  check_step_inputs(params);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (Param* p : params) {
    Tensor& val = p->value;
    Tensor& grad = p->grad_buffer();
    Tensor& m = m_.try_emplace(p, val.shape()).first->second;
    Tensor& v = v_.try_emplace(p, val.shape()).first->second;
    for (std::int64_t i = 0; i < val.numel(); ++i) {
      const double g = static_cast<double>(grad[i]) +
                       weight_decay_ * static_cast<double>(val[i]);
      m[i] = static_cast<float>(
          beta1_ * static_cast<double>(m[i]) + (1.0 - beta1_) * g);
      v[i] = static_cast<float>(
          beta2_ * static_cast<double>(v[i]) + (1.0 - beta2_) * g * g);
      const double mhat = static_cast<double>(m[i]) / bc1;
      const double vhat = static_cast<double>(v[i]) / bc2;
      val[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
  check_step_outputs(params);
}

}  // namespace lcrs::nn
