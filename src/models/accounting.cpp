#include "models/accounting.h"

#include <cstdio>

#include "binary/binary_conv2d.h"
#include "binary/binary_linear.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace lcrs::models {

std::vector<LayerProfile> profile_layers(nn::Sequential& model,
                                         const Shape& sample_shape) {
  std::vector<std::int64_t> dims{1};
  for (const auto d : sample_shape.dims()) dims.push_back(d);
  Tensor x{Shape(dims)};

  std::vector<LayerProfile> profiles;
  profiles.reserve(model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    nn::Layer& layer = model.layer(i);
    x = layer.forward(x, /*train=*/false);
    const std::vector<std::int64_t>& out = x.shape().dims();
    LayerProfile p;
    p.kind = layer.kind();
    p.flops = layer.flops_per_sample();
    p.param_bytes = layer.param_bytes();
    p.output_shape = Shape(std::vector<std::int64_t>(out.begin() + 1,
                                                     out.end()));
    p.is_binary = dynamic_cast<binary::BinaryConv2d*>(&layer) != nullptr ||
                  dynamic_cast<binary::BinaryLinear*>(&layer) != nullptr;
    profiles.push_back(std::move(p));
  }
  return profiles;
}

ModelProfile summarize(const std::vector<LayerProfile>& layers) {
  ModelProfile mp;
  for (const auto& l : layers) {
    mp.total_flops += l.flops;
    mp.total_param_bytes += l.param_bytes;
    ++mp.layer_count;
  }
  return mp;
}

std::int64_t int8_payload_bytes(nn::Layer& model) {
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&model)) {
    std::int64_t b = conv->weight().numel() + 4 * conv->out_channels();
    if (conv->has_bias()) b += 4 * conv->out_channels();
    return b;
  }
  if (auto* lin = dynamic_cast<nn::Linear*>(&model)) {
    std::int64_t b = lin->weight().numel() + 4 * lin->out_features();
    if (lin->has_bias()) b += 4 * lin->out_features();
    return b;
  }
  const auto children = model.children();
  if (children.empty()) return model.param_bytes();
  std::int64_t total = 0;
  for (nn::Layer* child : children) total += int8_payload_bytes(*child);
  return total;
}

std::string format_mb(std::int64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return std::string(buf);
}

}  // namespace lcrs::models
