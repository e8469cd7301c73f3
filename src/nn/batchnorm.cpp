#include "nn/batchnorm.h"

#include <cmath>
#include <vector>

namespace lcrs::nn {

BatchNorm::BatchNorm(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::ones(Shape{channels})),
      beta_("bn.beta", Tensor::zeros(Shape{channels})),
      running_mean_(Shape{channels}),
      running_var_(Tensor::ones(Shape{channels})) {
  LCRS_CHECK(channels > 0, "batchnorm channels must be positive");
}

namespace {
// Treat input as [N, C, S] with S = spatial size (1 for rank-2 input).
struct BnView {
  std::int64_t n, c, s;
};

BnView view_of(const Tensor& t, std::int64_t channels) {
  LCRS_CHECK(t.rank() == 2 || t.rank() == 4,
             "batchnorm expects rank 2 or 4, got " << t.rank());
  LCRS_CHECK(t.dim(1) == channels, "batchnorm channel mismatch: input "
                                       << t.dim(1) << " vs layer "
                                       << channels);
  if (t.rank() == 2) return {t.dim(0), t.dim(1), 1};
  return {t.dim(0), t.dim(1), t.dim(2) * t.dim(3)};
}
}  // namespace

Tensor BatchNorm::forward(const Tensor& input, bool train) {
  const BnView v = view_of(input, channels_);
  const std::int64_t count = v.n * v.s;
  LCRS_CHECK(count > 0, "batchnorm on empty batch");
  Tensor out(input.shape());

  std::vector<double> mean(static_cast<std::size_t>(channels_), 0.0);
  std::vector<double> var(static_cast<std::size_t>(channels_), 0.0);

  if (train) {
    for (std::int64_t b = 0; b < v.n; ++b) {
      for (std::int64_t c = 0; c < v.c; ++c) {
        const float* p = input.data() + (b * v.c + c) * v.s;
        for (std::int64_t i = 0; i < v.s; ++i) {
          mean[static_cast<std::size_t>(c)] += static_cast<double>(p[i]);
        }
      }
    }
    for (auto& m : mean) m /= static_cast<double>(count);
    for (std::int64_t b = 0; b < v.n; ++b) {
      for (std::int64_t c = 0; c < v.c; ++c) {
        const float* p = input.data() + (b * v.c + c) * v.s;
        const double m = mean[static_cast<std::size_t>(c)];
        for (std::int64_t i = 0; i < v.s; ++i) {
          const double d = static_cast<double>(p[i]) - m;
          var[static_cast<std::size_t>(c)] += d * d;
        }
      }
    }
    for (auto& s2 : var) s2 /= static_cast<double>(count);
    for (std::int64_t c = 0; c < channels_; ++c) {
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean[c]);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var[c]);
    }
  } else {
    for (std::int64_t c = 0; c < channels_; ++c) {
      mean[static_cast<std::size_t>(c)] = running_mean_[c];
      var[static_cast<std::size_t>(c)] = running_var_[c];
    }
  }

  Tensor inv_std{Shape{channels_}};
  for (std::int64_t c = 0; c < channels_; ++c) {
    inv_std[c] = static_cast<float>(
        1.0 / std::sqrt(var[static_cast<std::size_t>(c)] +
                        static_cast<double>(eps_)));
  }

  Tensor xhat(input.shape());
  for (std::int64_t b = 0; b < v.n; ++b) {
    for (std::int64_t c = 0; c < v.c; ++c) {
      const float* p = input.data() + (b * v.c + c) * v.s;
      float* xh = xhat.data() + (b * v.c + c) * v.s;
      float* o = out.data() + (b * v.c + c) * v.s;
      const float m = static_cast<float>(mean[static_cast<std::size_t>(c)]);
      const float is = inv_std[c];
      const float g = gamma_.value[c], bt = beta_.value[c];
      for (std::int64_t i = 0; i < v.s; ++i) {
        xh[i] = (p[i] - m) * is;
        o[i] = g * xh[i] + bt;
      }
    }
  }

  if (train) {
    cached_xhat_ = std::move(xhat);
    cached_inv_std_ = std::move(inv_std);
    input_shape_ = input.shape();
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  LCRS_CHECK(cached_xhat_.numel() > 0,
             "batchnorm backward without cached forward");
  const BnView v = view_of(grad_output, channels_);
  LCRS_CHECK(grad_output.shape() == input_shape_,
             "batchnorm grad shape mismatch");
  const double count = static_cast<double>(v.n * v.s);

  // Per-channel sums of g and g*xhat.
  std::vector<double> sum_g(static_cast<std::size_t>(channels_), 0.0);
  std::vector<double> sum_gx(static_cast<std::size_t>(channels_), 0.0);
  for (std::int64_t b = 0; b < v.n; ++b) {
    for (std::int64_t c = 0; c < v.c; ++c) {
      const float* g = grad_output.data() + (b * v.c + c) * v.s;
      const float* xh = cached_xhat_.data() + (b * v.c + c) * v.s;
      for (std::int64_t i = 0; i < v.s; ++i) {
        sum_g[static_cast<std::size_t>(c)] += static_cast<double>(g[i]);
        sum_gx[static_cast<std::size_t>(c)] +=
            static_cast<double>(g[i]) * static_cast<double>(xh[i]);
      }
    }
  }
  Tensor& beta_grad = beta_.grad_buffer();
  Tensor& gamma_grad = gamma_.grad_buffer();
  for (std::int64_t c = 0; c < channels_; ++c) {
    beta_grad[c] += static_cast<float>(sum_g[static_cast<std::size_t>(c)]);
    gamma_grad[c] += static_cast<float>(sum_gx[static_cast<std::size_t>(c)]);
  }

  Tensor grad_input{input_shape_};
  for (std::int64_t b = 0; b < v.n; ++b) {
    for (std::int64_t c = 0; c < v.c; ++c) {
      const float* g = grad_output.data() + (b * v.c + c) * v.s;
      const float* xh = cached_xhat_.data() + (b * v.c + c) * v.s;
      float* gi = grad_input.data() + (b * v.c + c) * v.s;
      const float gam = gamma_.value[c];
      const float is = cached_inv_std_[c];
      const float mg = static_cast<float>(
          sum_g[static_cast<std::size_t>(c)] / count);
      const float mgx = static_cast<float>(
          sum_gx[static_cast<std::size_t>(c)] / count);
      for (std::int64_t i = 0; i < v.s; ++i) {
        gi[i] = gam * is * (g[i] - mg - xh[i] * mgx);
      }
    }
  }
  return grad_input;
}

}  // namespace lcrs::nn
