// Whole-model parameter (de)serialization.
//
// Saves parameters in declaration order with names and shapes, so a model
// built the same way round-trips exactly. This is the "full precision
// model" artifact whose byte size Tables I / Fig. 7 report.
#pragma once

#include <string>

#include "common/bytes.h"
#include "nn/layer.h"

namespace lcrs::nn {

/// Serializes every parameter of `model` (values only, not gradients).
std::vector<std::uint8_t> save_params(Layer& model);

/// Restores parameters saved by save_params into an identically
/// constructed model, then calls Layer::params_loaded() on every layer
/// of it; throws ParseError on any mismatch, leaving the model unchanged.
void load_params(Layer& model, const std::vector<std::uint8_t>& bytes);

/// Convenience file wrappers.
void save_params_file(Layer& model, const std::string& path);
void load_params_file(Layer& model, const std::string& path);

/// Serialized model size in bytes (without serializing): header + payload
/// for each parameter, mirroring save_params' framing.
std::int64_t serialized_param_bytes(Layer& model);

}  // namespace lcrs::nn
