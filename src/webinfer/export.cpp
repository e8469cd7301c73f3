#include "webinfer/export.h"

#include <cmath>
#include <utility>

#include "binary/binary_conv2d.h"
#include "binary/binary_linear.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace lcrs::webinfer {

namespace {

void export_layer(nn::Layer& layer, std::vector<Op>& ops) {
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    Conv2dOp op;
    op.geom = conv->geometry();
    op.out_c = conv->out_channels();
    op.has_bias = conv->has_bias();
    op.weight = conv->weight().value;
    op.bias = op.has_bias ? conv->bias_param().value
                          : Tensor{Shape{op.out_c}};
    ops.push_back(std::move(op));
    return;
  }
  if (auto* bconv = dynamic_cast<binary::BinaryConv2d*>(&layer)) {
    binary::PackedFilters packed = binary::pack_filters(bconv->weight().value);
    BinaryConv2dOp op;
    op.geom = bconv->geometry();
    op.out_c = bconv->out_channels();
    op.weight_bits = std::move(packed.bits);
    op.alpha = std::move(packed.alpha);
    ops.push_back(std::move(op));
    return;
  }
  if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
    LinearOp op;
    op.in = lin->in_features();
    op.out = lin->out_features();
    op.has_bias = lin->has_bias();
    op.weight = lin->weight().value;
    op.bias = op.has_bias ? lin->bias_param().value : Tensor{Shape{op.out}};
    ops.push_back(std::move(op));
    return;
  }
  if (auto* blin = dynamic_cast<binary::BinaryLinear*>(&layer)) {
    binary::PackedFilters packed = binary::pack_filters(blin->weight().value);
    BinaryLinearOp op;
    op.in = blin->in_features();
    op.out = blin->out_features();
    op.has_bias = blin->has_bias();
    op.weight_bits = std::move(packed.bits);
    op.alpha = std::move(packed.alpha);
    op.bias = op.has_bias ? blin->bias_values() : Tensor{Shape{op.out}};
    ops.push_back(std::move(op));
    return;
  }
  if (auto* bn = dynamic_cast<nn::BatchNorm*>(&layer)) {
    BatchNormOp op;
    op.channels = bn->channels();
    op.scale = Tensor{Shape{op.channels}};
    op.shift = Tensor{Shape{op.channels}};
    for (std::int64_t c = 0; c < op.channels; ++c) {
      const float inv_std = 1.0f / std::sqrt(bn->running_var()[c] + bn->eps());
      op.scale[c] = bn->gamma().value[c] * inv_std;
      op.shift[c] =
          bn->beta().value[c] - bn->running_mean()[c] * op.scale[c];
    }
    ops.push_back(std::move(op));
    return;
  }
  if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
    ops.push_back(ActivationOp{ActivationOp::Kind::kReLU});
    return;
  }
  if (dynamic_cast<nn::Tanh*>(&layer) != nullptr) {
    ops.push_back(ActivationOp{ActivationOp::Kind::kTanh});
    return;
  }
  if (dynamic_cast<nn::HardTanh*>(&layer) != nullptr) {
    ops.push_back(ActivationOp{ActivationOp::Kind::kHardTanh});
    return;
  }
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
    ops.push_back(MaxPoolOp{pool->kernel(), pool->stride()});
    return;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
    ops.push_back(GlobalAvgPoolOp{});
    return;
  }
  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
    ops.push_back(FlattenOp{});
    return;
  }
  if (dynamic_cast<nn::Dropout*>(&layer) != nullptr) {
    return;  // identity at inference
  }
  throw InvalidArgument("cannot export layer kind: " + layer.kind());
}

}  // namespace

WebModel export_browser_model(core::CompositeNetwork& net, std::int64_t in_c,
                              std::int64_t in_h, std::int64_t in_w) {
  WebModel m;
  m.in_c = in_c;
  m.in_h = in_h;
  m.in_w = in_w;
  m.num_classes = net.num_classes();
  nn::Sequential& shared = net.shared_stage();
  for (std::size_t i = 0; i < shared.size(); ++i) {
    export_layer(shared.layer(i), m.ops);
  }
  m.shared_op_count = static_cast<std::int64_t>(m.ops.size());
  nn::Sequential& branch = net.binary_branch();
  for (std::size_t i = 0; i < branch.size(); ++i) {
    export_layer(branch.layer(i), m.ops);
  }
  return m;
}

}  // namespace lcrs::webinfer
