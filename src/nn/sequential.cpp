#include "nn/sequential.h"

#include <string>

#include "common/numerics.h"
#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/stopwatch.h"

namespace lcrs::nn {

namespace {

// Builds the attribution string lazily -- only on the enabled path, so the
// common case stays allocation-free.
std::string layer_label(std::size_t i, const Layer& layer) {
  return "layer " + std::to_string(i) + " (" + layer.kind() + ")";
}

void check_layer_output(const char* stage, std::size_t i, const Layer& layer,
                        const Tensor& t) {
  if (!numerics::enabled()) return;
  numerics::check_values(stage, layer_label(i, layer), t.data(), t.numel());
}

/// Profiling hook (same shape as the numerics hook): records one layer's
/// elapsed time into "nn.layer.<i>.<kind>.<stage>" in the global
/// registry. Callers gate on obs::profiling_enabled() so the disabled
/// path costs one relaxed load per forward/backward call, not per layer.
void record_layer_time(std::size_t i, const Layer& layer, const char* stage,
                       double micros) {
  obs::Registry::global()
      .histogram(obs::names::layer_metric(i, layer.kind(), stage))
      .record(micros);
}

}  // namespace

Tensor Sequential::forward(const Tensor& input, bool train) {
  if (numerics::enabled()) {
    numerics::check_values("forward input", "sequential", input.data(),
                           input.numel());
  }
  const bool profile = obs::profiling_enabled();
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Stopwatch watch;
    x = layers_[i]->forward(x, train);
    if (profile) {
      record_layer_time(i, *layers_[i], "forward_us", watch.micros());
    }
    check_layer_output("forward output", i, *layers_[i], x);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  const bool profile = obs::profiling_enabled();
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Stopwatch watch;
    g = layers_[i]->backward(g);
    if (profile) {
      record_layer_time(i, *layers_[i], "backward_us", watch.micros());
    }
    check_layer_output("backward input gradient", i, *layers_[i], g);
    if (numerics::enabled()) {
      for (Param* p : layers_[i]->params()) {
        numerics::check_values("accumulated gradient",
                               layer_label(i, *layers_[i]) + " param " +
                                   p->name,
                               p->grad().data(), p->grad().numel());
      }
    }
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<Layer::NamedState> Sequential::state_tensors() {
  std::vector<NamedState> all;
  for (auto& layer : layers_) {
    for (const NamedState& s : layer->state_tensors()) all.push_back(s);
  }
  return all;
}

std::int64_t Sequential::flops_per_sample() const {
  std::int64_t f = 0;
  for (const auto& layer : layers_) f += layer->flops_per_sample();
  return f;
}

Tensor Sequential::forward_prefix(const Tensor& input, std::size_t n_layers,
                                  bool train) {
  LCRS_CHECK(n_layers <= layers_.size(), "prefix longer than model");
  const bool profile = obs::profiling_enabled();
  Tensor x = input;
  for (std::size_t i = 0; i < n_layers; ++i) {
    Stopwatch watch;
    x = layers_[i]->forward(x, train);
    if (profile) {
      record_layer_time(i, *layers_[i], "forward_us", watch.micros());
    }
    check_layer_output("forward output", i, *layers_[i], x);
  }
  return x;
}

Tensor Sequential::forward_suffix(const Tensor& intermediate,
                                  std::size_t n_layers, bool train) {
  LCRS_CHECK(n_layers <= layers_.size(), "suffix start beyond model");
  const bool profile = obs::profiling_enabled();
  Tensor x = intermediate;
  for (std::size_t i = n_layers; i < layers_.size(); ++i) {
    Stopwatch watch;
    x = layers_[i]->forward(x, train);
    if (profile) {
      record_layer_time(i, *layers_[i], "forward_us", watch.micros());
    }
    check_layer_output("forward output", i, *layers_[i], x);
  }
  return x;
}

}  // namespace lcrs::nn
