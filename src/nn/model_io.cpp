#include "nn/model_io.h"

#include "tensor/serialize.h"

namespace lcrs::nn {

namespace {
constexpr std::uint32_t kModelMagic = 0x4c43524d;  // "LCRM"

void notify_params_loaded(Layer& layer) {
  layer.params_loaded();
  for (Layer* child : layer.children()) notify_params_loaded(*child);
}
}  // namespace

std::vector<std::uint8_t> save_params(Layer& model) {
  ByteWriter w;
  w.write_u32(kModelMagic);
  const auto params = model.params();
  w.write_u32(static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    w.write_string(p->name);
    write_tensor(w, p->value);
  }
  // Non-trainable state (batch-norm running statistics etc.).
  const auto states = model.state_tensors();
  w.write_u32(static_cast<std::uint32_t>(states.size()));
  for (const Layer::NamedState& s : states) {
    w.write_string(s.name);
    write_tensor(w, *s.tensor);
  }
  return w.take();
}

void load_params(Layer& model, const std::vector<std::uint8_t>& bytes) {
  // Transactional: parse and validate the entire blob into staging
  // storage first, then commit. A throw anywhere below leaves the model
  // exactly as it was -- tests/test_truncation.cpp feeds every prefix of
  // a valid blob through here and asserts no partial mutation.
  ByteReader r(bytes);
  if (r.read_u32() != kModelMagic) throw ParseError("bad model magic");
  const auto params = model.params();
  const std::uint32_t count = r.read_u32();
  if (count != params.size()) {
    throw ParseError("model parameter count mismatch: file has " +
                     std::to_string(count) + ", model has " +
                     std::to_string(params.size()));
  }
  std::vector<Tensor> staged_params;
  staged_params.reserve(params.size());
  for (Param* p : params) {
    const std::string name = r.read_string();
    if (name != p->name) {
      throw ParseError("parameter name mismatch: file '" + name +
                       "' vs model '" + p->name + "'");
    }
    Tensor t = read_tensor(r);
    if (t.shape() != p->value.shape()) {
      throw ParseError("parameter shape mismatch for " + name);
    }
    staged_params.push_back(std::move(t));
  }
  const auto states = model.state_tensors();
  const std::uint32_t state_count = r.read_u32();
  if (state_count != states.size()) {
    throw ParseError("model state count mismatch: file has " +
                     std::to_string(state_count) + ", model has " +
                     std::to_string(states.size()));
  }
  std::vector<Tensor> staged_states;
  staged_states.reserve(states.size());
  for (const Layer::NamedState& s : states) {
    const std::string name = r.read_string();
    if (name != s.name) {
      throw ParseError("state name mismatch: file '" + name +
                       "' vs model '" + s.name + "'");
    }
    Tensor t = read_tensor(r);
    if (t.shape() != s.tensor->shape()) {
      throw ParseError("state shape mismatch for " + name);
    }
    staged_states.push_back(std::move(t));
  }
  if (!r.at_end()) {
    throw ParseError("trailing bytes after model parameters");
  }

  // Commit -- these moves cannot throw.
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(staged_params[i]);
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    *states[i].tensor = std::move(staged_states[i]);
  }
  // Layers rebuild what they derived from the old weights (a prepared
  // Linear's W^T), so a loaded network never serves a stale cache.
  notify_params_loaded(model);
}

void save_params_file(Layer& model, const std::string& path) {
  write_file(path, save_params(model));
}

void load_params_file(Layer& model, const std::string& path) {
  load_params(model, read_file(path));
}

std::int64_t serialized_param_bytes(Layer& model) {
  std::int64_t n = 12;  // magic + param count + state count
  for (const Param* p : model.params()) {
    n += 4 + static_cast<std::int64_t>(p->name.size());
    n += tensor_wire_bytes(p->value.shape());
  }
  for (const Layer::NamedState& s : model.state_tensors()) {
    n += 4 + static_cast<std::int64_t>(s.name.size());
    n += tensor_wire_bytes(s.tensor->shape());
  }
  return n;
}

}  // namespace lcrs::nn
