// Model accounting: per-layer profiles driving the model-size tables and
// the latency cost model.
#pragma once

#include <string>
#include <vector>

#include "nn/sequential.h"

namespace lcrs::models {

/// Static profile of one layer inside a Sequential.
struct LayerProfile {
  std::string kind;            // layer kind tag ("conv2d", "binary_linear"…)
  std::int64_t flops = 0;      // MAC-equivalent flops for one sample
  std::int64_t param_bytes = 0;  // full-precision serialized weights
  Shape output_shape;            // activation shape for one sample
  bool is_binary = false;        // priced through the XNOR path
};

/// Profiles each layer by dry-running a single zero sample through the
/// model (inference mode); `input_shape` excludes the batch dimension.
std::vector<LayerProfile> profile_layers(nn::Sequential& model,
                                         const Shape& sample_shape);

/// Aggregate of a profile list.
struct ModelProfile {
  std::int64_t total_flops = 0;
  std::int64_t total_param_bytes = 0;
  std::int64_t layer_count = 0;
};
ModelProfile summarize(const std::vector<LayerProfile>& layers);

/// Byte size of a whole model with conv/linear weights stored as int8
/// plus one float scale per output filter, everything else float32: the
/// classic compression alternative the binary branch is compared against.
std::int64_t int8_payload_bytes(nn::Layer& model);

/// Pretty "12.3 MB" style formatting used by the table harnesses.
std::string format_mb(std::int64_t bytes);

}  // namespace lcrs::models
