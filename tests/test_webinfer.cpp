// Browser inference library tests: format round-trip and, critically,
// output parity between the standalone engine and the training framework
// (the paper validates its JS/WASM library against PyTorch identically).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/composite.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/model_io.h"
#include "nn/pooling.h"
#include "tensor/tensor_ops.h"
#include "webinfer/engine.h"
#include "webinfer/export.h"

namespace lcrs::webinfer {
namespace {

core::CompositeNetwork make_net(models::Arch arch, std::int64_t channels,
                                std::int64_t hw, std::int64_t classes,
                                Rng& rng) {
  const models::ModelConfig cfg{arch, channels, hw, hw, classes, 0.25};
  return core::CompositeNetwork::build(cfg, rng);
}

TEST(Format, EmptyModelRejected) {
  EXPECT_THROW(Engine(WebModel{}), Error);
}

TEST(Format, SerializeDeserializeRoundTrip) {
  Rng rng(1);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const WebModel m = export_browser_model(net, 1, 28, 28);
  const auto bytes = serialize(m);
  const WebModel back = deserialize(bytes);
  EXPECT_EQ(back.in_c, 1);
  EXPECT_EQ(back.in_h, 28);
  EXPECT_EQ(back.num_classes, 10);
  EXPECT_EQ(back.shared_op_count, m.shared_op_count);
  EXPECT_EQ(back.ops.size(), m.ops.size());

  // Loaded model computes identically to the in-memory one.
  const Engine a{m}, b{back};
  const Tensor x = Tensor::randn(Shape{2, 1, 28, 28}, rng);
  EXPECT_EQ(max_abs_diff(a.forward(x), b.forward(x)), 0.0f);
}

TEST(Format, CorruptBytesThrow) {
  Rng rng(2);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  auto bytes = serialize(export_browser_model(net, 1, 28, 28));
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize(bytes), ParseError);

  auto truncated = serialize(export_browser_model(net, 1, 28, 28));
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(deserialize(truncated), ParseError);
}

struct ParityCase {
  models::Arch arch;
  std::int64_t channels, hw, classes;
};

class EngineParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(EngineParity, MatchesFrameworkInference) {
  const ParityCase p = GetParam();
  Rng rng(p.channels * 100 + p.hw);
  core::CompositeNetwork net =
      make_net(p.arch, p.channels, p.hw, p.classes, rng);

  // Exercise batchnorm running stats so folding is non-trivial.
  for (int i = 0; i < 3; ++i) {
    net.forward(Tensor::randn(Shape{8, p.channels, p.hw, p.hw}, rng), true);
  }

  const Engine engine{export_browser_model(net, p.channels, p.hw, p.hw)};
  const Tensor x = Tensor::randn(Shape{4, p.channels, p.hw, p.hw}, rng);

  const core::CompositeOutput ref = net.forward_binary_only(x);
  const Tensor engine_logits = engine.forward(x);
  // Binary layers run through the exact XNOR path; conv/linear/batchnorm
  // introduce only fold-ordering float noise.
  EXPECT_LT(max_abs_diff(ref.binary_logits, engine_logits), 1e-3f);

  // Predicted classes must agree exactly.
  const auto ref_pred = argmax_rows(ref.binary_logits);
  const auto eng_pred = argmax_rows(engine_logits);
  EXPECT_EQ(ref_pred, eng_pred);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, EngineParity,
    ::testing::Values(ParityCase{models::Arch::kLeNet, 1, 28, 10},
                      ParityCase{models::Arch::kAlexNet, 3, 32, 10},
                      ParityCase{models::Arch::kResNet18, 3, 32, 10},
                      ParityCase{models::Arch::kVgg16, 3, 32, 100}));

TEST(Engine, SharedPlusBranchEqualsFullForward) {
  Rng rng(3);
  core::CompositeNetwork net =
      make_net(models::Arch::kAlexNet, 3, 32, 10, rng);
  const Engine engine{export_browser_model(net, 3, 32, 32)};
  const Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);

  const Tensor shared = engine.forward_shared(x);
  const Tensor via_split = engine.forward_branch(shared);
  EXPECT_EQ(max_abs_diff(via_split, engine.forward(x)), 0.0f);

  // The shared tensor matches the framework's conv1 output.
  const core::CompositeOutput ref = net.forward_binary_only(x);
  EXPECT_LT(max_abs_diff(shared, ref.shared), 1e-4f);
}

TEST(Engine, ParityHoldsAfterTraining) {
  // The full paper flow: joint-train, export, verify parity.
  Rng rng(4);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const data::TrainTest tt =
      data::make_synthetic_pair(data::mnist_like(), 128, 64, rng);
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.verbose = false;
  core::JointTrainer trainer(net, cfg);
  trainer.train(tt.train, tt.test, rng);

  const Engine engine{export_browser_model(net, 1, 28, 28)};
  const Tensor x = tt.test.images.slice_outer(0, 8);
  const core::CompositeOutput ref = net.forward_binary_only(x);
  EXPECT_LT(max_abs_diff(ref.binary_logits, engine.forward(x)), 1e-3f);
}

// Export packs the weights the network holds when it is called, however
// they got there: loading another network's binary branch without a
// training step must show in the next export.
TEST(Engine, ExportFollowsWeightsLoadedWithoutTraining) {
  Rng rng(9);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  core::CompositeNetwork other =
      make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const auto before = serialize(export_browser_model(net, 1, 28, 28));
  nn::load_params(net.binary_branch(), nn::save_params(other.binary_branch()));

  const WebModel after = export_browser_model(net, 1, 28, 28);
  EXPECT_NE(serialize(after), before);
  const Tensor x = Tensor::randn(Shape{4, 1, 28, 28}, rng);
  EXPECT_LT(max_abs_diff(net.forward_binary_only(x).binary_logits,
                         Engine{after}.forward(x)),
            1e-3f);
}

TEST(Engine, ModelBytesAreMuchSmallerThanFloat) {
  Rng rng(5);
  core::CompositeNetwork net =
      make_net(models::Arch::kAlexNet, 3, 32, 10, rng);
  const Engine engine{export_browser_model(net, 3, 32, 32)};
  std::int64_t float_branch_bytes = 0;
  for (nn::Param* p : net.binary_params()) {
    float_branch_bytes += p->numel() * 4;
  }
  // Engine blob = float conv1 + packed branch; it must be far below the
  // float branch alone (the binary weights dominate the branch).
  EXPECT_LT(engine.model_bytes(), float_branch_bytes);
}

TEST(Engine, RejectsWrongGeometry) {
  Rng rng(6);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const Engine engine{export_browser_model(net, 1, 28, 28)};
  EXPECT_THROW(engine.forward(Tensor{Shape{1, 3, 28, 28}}), Error);
  EXPECT_THROW(engine.forward(Tensor{Shape{1, 1, 32, 32}}), Error);
}

TEST(Engine, PredictProbabilitiesSumToOne) {
  Rng rng(7);
  core::CompositeNetwork net = make_net(models::Arch::kLeNet, 1, 28, 10, rng);
  const Engine engine{export_browser_model(net, 1, 28, 28)};
  const Tensor p =
      engine.predict_probabilities(Tensor::randn(Shape{1, 1, 28, 28}, rng));
  double sum = 0.0;
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    sum += static_cast<double>(p[i]);
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

// A model whose shared stage is the single op `op`, so forward_shared
// runs that op alone.
Engine single_op_engine(Op op, const Shape& in) {
  WebModel m;
  m.in_c = in[1];
  m.in_h = in[2];
  m.in_w = in[3];
  m.num_classes = 1;
  m.shared_op_count = 1;
  m.ops.push_back(std::move(op));
  return Engine(std::move(m));
}

void expect_bit_equal(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0);
}

// The browser ops and the training framework's eval forwards must agree
// bit for bit, NaN, signed zeros and infinities included.
TEST(Engine, ActivationAndMaxPoolOpsMatchNnLayersBitForBit) {
  Rng rng(8);
  Tensor x = Tensor::randn(Shape{2, 3, 7, 9}, rng, 0.0f, 2.0f);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), 0.0f,
                            -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (std::int64_t i = 0; i < 25; ++i) x[i * 13 + 1] = specials[i % 5];

  using Kind = ActivationOp::Kind;
  nn::ReLU relu;
  expect_bit_equal(single_op_engine(ActivationOp{Kind::kReLU}, x.shape())
                       .forward_shared(x),
                   relu.forward(x, false));
  nn::HardTanh hard_tanh;
  expect_bit_equal(single_op_engine(ActivationOp{Kind::kHardTanh}, x.shape())
                       .forward_shared(x),
                   hard_tanh.forward(x, false));
  {
    // nn::Tanh is exact std::tanh only at the scalar dispatch level.
    simd::ScopedForcedLevel scalar(simd::Level::kScalar);
    nn::Tanh tanh_layer;
    expect_bit_equal(single_op_engine(ActivationOp{Kind::kTanh}, x.shape())
                         .forward_shared(x),
                     tanh_layer.forward(x, false));
  }
  for (const auto& [k, s] : {std::pair<std::int64_t, std::int64_t>{2, 2},
                            {3, 2}, {3, 1}}) {
    SCOPED_TRACE("kernel " + std::to_string(k) + " stride " +
                 std::to_string(s));
    nn::MaxPool2d pool(k, s);
    expect_bit_equal(
        single_op_engine(MaxPoolOp{k, s}, x.shape()).forward_shared(x),
        pool.forward(x, false));
  }
}

// The browser's conv op and nn::Conv2d's eval forward share one kernel,
// so the engine must reproduce the layer bit for bit at every dispatch
// level, batch size and bias setting. out_c = 2 over 36 output pixels
// crosses gemm's AVX2 small-batch path; out_c = 5 the tiled kernel.
TEST(Engine, ConvOpMatchesNnConv2dBitForBit) {
  Rng rng(9);
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level l :
       {simd::Level::kSse, simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::level_available(l)) levels.push_back(l);
  }
  struct Geom {
    std::int64_t in_c, out_c, kernel, stride, pad, h, w;
  };
  for (const Geom& g : {Geom{3, 5, 3, 1, 1, 9, 11},
                        Geom{2, 2, 5, 2, 2, 12, 12}}) {
    for (const bool bias : {true, false}) {
      nn::Conv2d conv(g.in_c, g.out_c, g.kernel, g.stride, g.pad, g.h, g.w,
                      rng, bias);
      conv.bias_param().value = Tensor::randn(Shape{g.out_c}, rng);
      Conv2dOp op;
      op.geom = conv.geometry();
      op.out_c = g.out_c;
      op.has_bias = bias;
      op.weight = conv.weight().value;
      op.bias = conv.bias_param().value;
      const Engine engine = single_op_engine(
          std::move(op), Shape{1, g.in_c, g.h, g.w});
      for (const std::int64_t n : {1, 3}) {
        const Tensor x = Tensor::randn(Shape{n, g.in_c, g.h, g.w}, rng);
        for (const simd::Level level : levels) {
          SCOPED_TRACE(std::string(simd::level_name(level)) + " out_c " +
                       std::to_string(g.out_c) + " bias " +
                       std::to_string(bias) + " batch " + std::to_string(n));
          simd::ScopedForcedLevel force(level);
          expect_bit_equal(engine.forward_shared(x), conv.forward(x, false));
        }
      }
    }
  }
}

// A blob's conv weight and bias come from outside the program; a
// tensor smaller than out_c x patch must be rejected, not read past.
TEST(Engine, ConvOpRejectsWeightOrBiasThatDoesNotMatchGeometry) {
  Conv2dOp op;
  op.geom = ConvGeom{2, 6, 6, 3, 1, 1};
  op.out_c = 4;
  op.weight = Tensor{Shape{4, 1, 3, 3}};  // in_c 1, geometry says 2
  op.bias = Tensor{Shape{4}};
  const Tensor x{Shape{1, 2, 6, 6}};
  EXPECT_THROW(single_op_engine(op, x.shape()).forward_shared(x), Error);
  op.weight = Tensor{Shape{4, 2, 3, 3}};
  op.bias = Tensor{Shape{3}};
  EXPECT_THROW(single_op_engine(op, x.shape()).forward_shared(x), Error);
  op.bias = Tensor{Shape{4}};
  EXPECT_EQ(single_op_engine(op, x.shape()).forward_shared(x).shape(),
            (Shape{1, 4, 6, 6}));
}

TEST(Engine, MaxPoolOpRejectsWindowLargerThanInput) {
  // (1 - 2) / 2 + 1 == 1 under truncating division, so an extent check
  // on the output alone would let this 2x2 window read past a 1x1 plane.
  const Tensor x{Shape{1, 1, 1, 1}};
  EXPECT_THROW(single_op_engine(MaxPoolOp{2, 2}, x.shape()).forward_shared(x),
               Error);
}

// A blob's LinearOp carries in, out and its weight separately, and the
// engine's gemm reads out * in floats through the raw weight pointer; a
// weight that is not [out x in] (or a bias that is not [out]) must be
// refused when the blob is parsed, before any op runs.
TEST(Format, RejectsLinearOpWhoseWeightOrBiasMismatchesItsShape) {
  const auto blob = [](const Shape& weight, const Shape& bias) {
    LinearOp op;
    op.in = 6;
    op.out = 4;
    op.has_bias = true;
    op.weight = Tensor{weight};
    op.bias = Tensor{bias};
    WebModel m;
    m.in_c = 6;
    m.in_h = m.in_w = 1;
    m.num_classes = 4;
    m.ops = {FlattenOp{}, std::move(op)};
    return serialize(m);
  };
  EXPECT_THROW(deserialize(blob(Shape{4, 5}, Shape{4})), Error);
  EXPECT_THROW(deserialize(blob(Shape{3, 6}, Shape{4})), Error);
  EXPECT_THROW(deserialize(blob(Shape{24}, Shape{4})), Error);
  EXPECT_THROW(deserialize(blob(Shape{4, 6}, Shape{3})), Error);
  const Engine ok{deserialize(blob(Shape{4, 6}, Shape{4}))};
  EXPECT_EQ(ok.forward(Tensor{Shape{2, 6, 1, 1}}).shape(), (Shape{2, 4}));
}

// 64-bit FNV-1a, enough to tell one blob from another.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// The exported blob's bytes are the browser's download: a change to how
// export packs or lays out the weights must show here, not only as a
// parity drift. Untrained fixed-seed composites, one per served model.
TEST(Export, BlobBytesArePinned) {
  struct Pin {
    models::ModelConfig cfg;
    std::size_t size;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {{models::Arch::kLeNet, 1, 28, 28, 10, 1.0, 0.0}, 51749,
       0x18551aa10330980aull},
      {{models::Arch::kAlexNet, 3, 32, 32, 10, 0.5, 0.0}, 521049,
       0x155b115e19030108ull},
  };
  for (const Pin& pin : pins) {
    Rng rng(23);
    core::CompositeNetwork net = core::CompositeNetwork::build(pin.cfg, rng);
    const auto bytes = serialize(export_browser_model(
        net, pin.cfg.in_channels, pin.cfg.in_h, pin.cfg.in_w));
    EXPECT_EQ(bytes.size(), pin.size) << models::arch_name(pin.cfg.arch);
    EXPECT_EQ(fnv1a(bytes), pin.hash)
        << models::arch_name(pin.cfg.arch) << " 0x" << std::hex
        << fnv1a(bytes);
  }
}

}  // namespace
}  // namespace lcrs::webinfer
