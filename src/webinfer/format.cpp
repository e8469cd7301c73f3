#include "webinfer/format.h"

#include "tensor/serialize.h"

namespace lcrs::webinfer {

namespace {

constexpr std::uint32_t kWebModelMagic = 0x4c435257;  // "LCRW"
constexpr std::uint32_t kVersion = 1;

enum class OpTag : std::uint8_t {
  kConv2d = 0,
  kBinaryConv2d = 1,
  kLinear = 2,
  kBinaryLinear = 3,
  kBatchNorm = 4,
  kActivation = 5,
  kMaxPool = 6,
  kGlobalAvgPool = 7,
  kFlatten = 8,
};

void write_geom(ByteWriter& w, const ConvGeom& g) {
  w.write_i64(g.in_c);
  w.write_i64(g.in_h);
  w.write_i64(g.in_w);
  w.write_i64(g.kernel);
  w.write_i64(g.stride);
  w.write_i64(g.pad);
}

ConvGeom read_geom(ByteReader& r) {
  ConvGeom g;
  g.in_c = r.read_i64();
  g.in_h = r.read_i64();
  g.in_w = r.read_i64();
  g.kernel = r.read_i64();
  g.stride = r.read_i64();
  g.pad = r.read_i64();
  g.validate();
  return g;
}

struct OpSerializer {
  ByteWriter& w;

  void operator()(const Conv2dOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kConv2d));
    write_geom(w, op.geom);
    w.write_i64(op.out_c);
    w.write_u8(op.has_bias ? 1 : 0);
    write_tensor(w, op.weight);
    write_tensor(w, op.bias);
  }
  void operator()(const BinaryConv2dOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kBinaryConv2d));
    write_geom(w, op.geom);
    w.write_i64(op.out_c);
    op.weight_bits.serialize(w);
    write_tensor(w, op.alpha);
  }
  void operator()(const LinearOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kLinear));
    w.write_i64(op.in);
    w.write_i64(op.out);
    w.write_u8(op.has_bias ? 1 : 0);
    write_tensor(w, op.weight);
    write_tensor(w, op.bias);
  }
  void operator()(const BinaryLinearOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kBinaryLinear));
    w.write_i64(op.in);
    w.write_i64(op.out);
    w.write_u8(op.has_bias ? 1 : 0);
    op.weight_bits.serialize(w);
    write_tensor(w, op.alpha);
    write_tensor(w, op.bias);
  }
  void operator()(const BatchNormOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kBatchNorm));
    w.write_i64(op.channels);
    write_tensor(w, op.scale);
    write_tensor(w, op.shift);
  }
  void operator()(const ActivationOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kActivation));
    w.write_u8(static_cast<std::uint8_t>(op.kind));
  }
  void operator()(const MaxPoolOp& op) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kMaxPool));
    w.write_i64(op.kernel);
    w.write_i64(op.stride);
  }
  void operator()(const GlobalAvgPoolOp&) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kGlobalAvgPool));
  }
  void operator()(const FlattenOp&) {
    w.write_u8(static_cast<std::uint8_t>(OpTag::kFlatten));
  }
};

Op read_op(ByteReader& r) {
  const OpTag tag = static_cast<OpTag>(r.read_u8());
  switch (tag) {
    case OpTag::kConv2d: {
      Conv2dOp op;
      op.geom = read_geom(r);
      op.out_c = r.read_i64();
      op.has_bias = r.read_u8() != 0;
      op.weight = read_tensor(r);
      op.bias = read_tensor(r);
      return op;
    }
    case OpTag::kBinaryConv2d: {
      BinaryConv2dOp op;
      op.geom = read_geom(r);
      op.out_c = r.read_i64();
      op.weight_bits = binary::BitMatrix::deserialize(r);
      op.alpha = read_tensor(r);
      return op;
    }
    case OpTag::kLinear: {
      LinearOp op;
      op.in = r.read_i64();
      op.out = r.read_i64();
      op.has_bias = r.read_u8() != 0;
      op.weight = read_tensor(r);
      op.bias = read_tensor(r);
      // The engine's gemm reads out * in weights through a raw pointer.
      if (op.weight.shape() != Shape{op.out, op.in} ||
          op.bias.shape() != Shape{op.out}) {
        throw ParseError("linear op weight or bias mismatches in/out");
      }
      return op;
    }
    case OpTag::kBinaryLinear: {
      BinaryLinearOp op;
      op.in = r.read_i64();
      op.out = r.read_i64();
      op.has_bias = r.read_u8() != 0;
      op.weight_bits = binary::BitMatrix::deserialize(r);
      op.alpha = read_tensor(r);
      op.bias = read_tensor(r);
      return op;
    }
    case OpTag::kBatchNorm: {
      BatchNormOp op;
      op.channels = r.read_i64();
      op.scale = read_tensor(r);
      op.shift = read_tensor(r);
      return op;
    }
    case OpTag::kActivation: {
      ActivationOp op;
      op.kind = static_cast<ActivationOp::Kind>(r.read_u8());
      if (op.kind != ActivationOp::Kind::kReLU &&
          op.kind != ActivationOp::Kind::kTanh &&
          op.kind != ActivationOp::Kind::kHardTanh) {
        throw ParseError("bad activation kind");
      }
      return op;
    }
    case OpTag::kMaxPool: {
      MaxPoolOp op;
      op.kernel = r.read_i64();
      op.stride = r.read_i64();
      if (op.kernel < 1 || op.stride < 1) throw ParseError("bad pool op");
      return op;
    }
    case OpTag::kGlobalAvgPool:
      return GlobalAvgPoolOp{};
    case OpTag::kFlatten:
      return FlattenOp{};
  }
  throw ParseError("unknown op tag");
}

}  // namespace

std::vector<std::uint8_t> serialize(const WebModel& model) {
  ByteWriter w;
  w.write_u32(kWebModelMagic);
  w.write_u32(kVersion);
  w.write_i64(model.in_c);
  w.write_i64(model.in_h);
  w.write_i64(model.in_w);
  w.write_i64(model.num_classes);
  w.write_i64(model.shared_op_count);
  w.write_u32(static_cast<std::uint32_t>(model.ops.size()));
  for (const Op& op : model.ops) std::visit(OpSerializer{w}, op);
  return w.take();
}

WebModel deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.read_u32() != kWebModelMagic) throw ParseError("bad web model magic");
  if (r.read_u32() != kVersion) throw ParseError("unsupported version");
  WebModel m;
  m.in_c = r.read_i64();
  m.in_h = r.read_i64();
  m.in_w = r.read_i64();
  m.num_classes = r.read_i64();
  m.shared_op_count = r.read_i64();
  const std::uint32_t n = r.read_u32();
  if (n > 4096) throw ParseError("op list too long");
  if (m.shared_op_count < 0 ||
      m.shared_op_count > static_cast<std::int64_t>(n)) {
    throw ParseError("bad shared_op_count");
  }
  m.ops.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.ops.push_back(read_op(r));
  // The blob is exactly one model: trailing bytes mean a corrupted
  // download or a smuggled payload, and accepting them would break the
  // serialize(deserialize(b)) == b canonical-format invariant the fuzz
  // harness enforces.
  if (!r.at_end()) {
    throw ParseError("trailing bytes after web model blob");
  }
  return m;
}

}  // namespace lcrs::webinfer
