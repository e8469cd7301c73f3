#include "webinfer/engine.h"

#include <cmath>
#include <vector>

#include "binary/xnor_gemm.h"
#include "common/numerics.h"
#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/stopwatch.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace lcrs::webinfer {

Engine::Engine(WebModel model) : model_(std::move(model)) {
  LCRS_CHECK(model_.in_c > 0 && model_.in_h > 0 && model_.in_w > 0,
             "engine model has no input geometry");
  LCRS_CHECK(!model_.ops.empty(), "engine model has no ops");
}

Engine Engine::from_bytes(const std::vector<std::uint8_t>& bytes) {
  return Engine(deserialize(bytes));
}

namespace {

Tensor run_conv(const Conv2dOp& op, const Tensor& x) {
  const ConvGeom& g = op.geom;
  LCRS_CHECK(x.rank() == 4 && x.dim(1) == g.in_c && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "conv op input mismatch: " << x.shape().to_string());
  return conv2d(x, g, op.weight, op.has_bias ? &op.bias : nullptr);
}

Tensor run_linear(const LinearOp& op, const Tensor& x) {
  LCRS_CHECK(x.rank() == 2 && x.dim(1) == op.in, "linear op input mismatch");
  const std::int64_t n = x.dim(0);
  Tensor out{Shape{n, op.out}};
  gemm_bt(x.data(), op.weight.data(), out.data(), n, op.in, op.out);
  if (op.has_bias) {
    for (std::int64_t b = 0; b < n; ++b) {
      float* row = out.data() + b * op.out;
      for (std::int64_t o = 0; o < op.out; ++o) row[o] += op.bias[o];
    }
  }
  return out;
}

Tensor run_batchnorm(const BatchNormOp& op, const Tensor& x) {
  LCRS_CHECK((x.rank() == 4 || x.rank() == 2) && x.dim(1) == op.channels,
             "batchnorm op input mismatch");
  const std::int64_t n = x.dim(0);
  const std::int64_t spatial = x.rank() == 4 ? x.dim(2) * x.dim(3) : 1;
  Tensor out(x.shape());
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < op.channels; ++c) {
      const float* src = x.data() + (b * op.channels + c) * spatial;
      float* dst = out.data() + (b * op.channels + c) * spatial;
      const float s = op.scale[c], sh = op.shift[c];
      for (std::int64_t i = 0; i < spatial; ++i) dst[i] = src[i] * s + sh;
    }
  }
  return out;
}

Tensor run_activation(const ActivationOp& op, const Tensor& x) {
  switch (op.kind) {
    case ActivationOp::Kind::kReLU:
      return relu(x);
    case ActivationOp::Kind::kTanh: {
      Tensor out(x.shape());
      const float* src = x.data();
      float* dst = out.data();
      const std::int64_t n = x.numel();
      for (std::int64_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i]);
      return out;
    }
    case ActivationOp::Kind::kHardTanh:
      return hard_tanh(x);
  }
  throw Error("unknown activation kind " +
              std::to_string(static_cast<int>(op.kind)));
}

Tensor run_maxpool(const MaxPoolOp& op, const Tensor& x) {
  LCRS_CHECK(x.rank() == 4, "maxpool op expects NCHW");
  return max_pool2d(x, op.kernel, op.stride);
}

Tensor run_gap(const Tensor& x) {
  LCRS_CHECK(x.rank() == 4, "gap op expects NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t plane = x.dim(2) * x.dim(3);
  const float inv = 1.0f / static_cast<float>(plane);
  Tensor out{Shape{n, c}};
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (b * c + ch) * plane;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
      out.at2(b, ch) = acc * inv;
    }
  }
  return out;
}

struct OpRunner {
  Tensor x;

  void operator()(const Conv2dOp& op) { x = run_conv(op, x); }
  void operator()(const BinaryConv2dOp& op) {
    x = binary::xnor_conv2d(x, op.geom, op.weight_bits, op.alpha);
  }
  void operator()(const LinearOp& op) { x = run_linear(op, x); }
  void operator()(const BinaryLinearOp& op) {
    x = binary::xnor_linear(x, op.weight_bits, op.alpha,
                            op.has_bias ? &op.bias : nullptr);
  }
  void operator()(const BatchNormOp& op) { x = run_batchnorm(op, x); }
  void operator()(const ActivationOp& op) { x = run_activation(op, x); }
  void operator()(const MaxPoolOp& op) { x = run_maxpool(op, x); }
  void operator()(const GlobalAvgPoolOp&) { x = run_gap(x); }
  void operator()(const FlattenOp&) {
    LCRS_CHECK(x.rank() >= 2, "flatten op expects rank >= 2");
    x = x.reshaped(Shape{x.dim(0), x.numel() / x.dim(0)});
  }
};

struct OpName {
  const char* operator()(const Conv2dOp&) const { return "conv2d"; }
  const char* operator()(const BinaryConv2dOp&) const {
    return "binary_conv2d";
  }
  const char* operator()(const LinearOp&) const { return "linear"; }
  const char* operator()(const BinaryLinearOp&) const {
    return "binary_linear";
  }
  const char* operator()(const BatchNormOp&) const { return "batchnorm"; }
  const char* operator()(const ActivationOp&) const { return "activation"; }
  const char* operator()(const MaxPoolOp&) const { return "maxpool"; }
  const char* operator()(const GlobalAvgPoolOp&) const { return "gap"; }
  const char* operator()(const FlattenOp&) const { return "flatten"; }
};

// Numerics hook for the reference-parity path: the webinfer engine is the
// ground truth the browser build is validated against, so a NaN here must
// name the op, not just fail a downstream comparison.
void check_op_output(const Op& op, std::size_t i, const Tensor& x) {
  if (!numerics::enabled()) return;
  numerics::check_values("op output",
                         "webinfer op " + std::to_string(i) + " (" +
                             std::visit(OpName{}, op) + ")",
                         x.data(), x.numel());
}

/// Profiling hook at the same point as the numerics hook: records one
/// op's elapsed time into "webinfer.op.<i>.<opname>.us". Callers gate
/// on obs::profiling_enabled() once per forward pass.
void record_op_time(const Op& op, std::size_t i, double micros) {
  obs::Registry::global()
      .histogram(obs::names::webinfer_op_metric(i, std::visit(OpName{}, op)))
      .record(micros);
}

/// Runs ops [begin, end) of `model` on `runner`, timing each when
/// profiling is on -- the shared body of forward/forward_shared/
/// forward_branch.
void run_ops(const WebModel& model, OpRunner& runner, std::size_t begin,
             std::size_t end) {
  const bool profile = obs::profiling_enabled();
  for (std::size_t i = begin; i < end; ++i) {
    Stopwatch watch;
    std::visit(runner, model.ops[i]);
    if (profile) record_op_time(model.ops[i], i, watch.micros());
    check_op_output(model.ops[i], i, runner.x);
  }
}

}  // namespace

Tensor Engine::forward(const Tensor& input) const {
  LCRS_CHECK(input.rank() == 4 && input.dim(1) == model_.in_c &&
                 input.dim(2) == model_.in_h && input.dim(3) == model_.in_w,
             "engine input " << input.shape().to_string()
                             << " does not match model geometry");
  OpRunner runner{input};
  run_ops(model_, runner, 0, model_.ops.size());
  LCRS_CHECK(runner.x.rank() == 2 && runner.x.dim(1) == model_.num_classes,
             "engine output is not [N x classes]: "
                 << runner.x.shape().to_string());
  return std::move(runner.x);
}

Tensor Engine::forward_shared(const Tensor& input) const {
  LCRS_CHECK(input.rank() == 4 && input.dim(1) == model_.in_c &&
                 input.dim(2) == model_.in_h && input.dim(3) == model_.in_w,
             "engine shared input mismatch");
  OpRunner runner{input};
  run_ops(model_, runner, 0, static_cast<std::size_t>(model_.shared_op_count));
  return std::move(runner.x);
}

Tensor Engine::forward_branch(const Tensor& shared) const {
  OpRunner runner{shared};
  run_ops(model_, runner, static_cast<std::size_t>(model_.shared_op_count),
          model_.ops.size());
  LCRS_CHECK(runner.x.rank() == 2 && runner.x.dim(1) == model_.num_classes,
             "engine branch output is not [N x classes]");
  return std::move(runner.x);
}

Tensor Engine::predict_probabilities(const Tensor& sample) const {
  return softmax_rows(forward(sample));
}

std::int64_t Engine::model_bytes() const {
  return static_cast<std::int64_t>(serialize(model_).size());
}

}  // namespace lcrs::webinfer
