// Model zoo tests: every architecture builds and runs at every dataset
// geometry, the conv1/rest split matches the monolithic build, accounting
// is consistent, and full-width model sizes land in the paper's ballpark.
#include <gtest/gtest.h>

#include "core/composite.h"
#include "models/accounting.h"
#include "models/zoo.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

namespace lcrs::models {
namespace {

/// Size of the serialized browser blob (conv1 + packed binary branch).
std::int64_t blob_bytes(core::CompositeNetwork& net, const ModelConfig& cfg) {
  return std::ssize(webinfer::serialize(webinfer::export_browser_model(
      net, cfg.in_channels, cfg.in_h, cfg.in_w)));
}

struct ZooCase {
  Arch arch;
  std::int64_t channels, hw, classes;
};

class ZooBuilds : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooBuilds, ForwardShapesAreCorrect) {
  const ZooCase z = GetParam();
  Rng rng(17);
  const ModelConfig cfg{z.arch, z.channels, z.hw, z.hw, z.classes, 0.25};
  MainBranch mb = build_main_branch(cfg, rng);

  const Tensor x = Tensor::randn(Shape{2, z.channels, z.hw, z.hw}, rng);
  const Tensor shared = mb.conv1->forward(x, false);
  EXPECT_EQ(shared.shape(), mb.conv1_output_shape(2));
  const Tensor logits = mb.rest->forward(shared, false);
  EXPECT_EQ(logits.shape(), (Shape{2, z.classes}));
}

TEST_P(ZooBuilds, BinaryBranchProducesLogits) {
  const ZooCase z = GetParam();
  Rng rng(18);
  const ModelConfig cfg{z.arch, z.channels, z.hw, z.hw, z.classes, 0.25};
  MainBranch mb = build_main_branch(cfg, rng);
  auto branch = build_binary_branch(default_branch(z.arch), mb.out_c,
                                    mb.out_h, mb.out_w, z.classes, rng);
  const Tensor shared =
      Tensor::randn(mb.conv1_output_shape(3), rng);
  EXPECT_EQ(branch->forward(shared, false).shape(), (Shape{3, z.classes}));
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitecturesAndGeometries, ZooBuilds,
    ::testing::Values(ZooCase{Arch::kLeNet, 1, 28, 10},
                      ZooCase{Arch::kLeNet, 3, 32, 100},
                      ZooCase{Arch::kAlexNet, 1, 28, 10},
                      ZooCase{Arch::kAlexNet, 3, 32, 10},
                      ZooCase{Arch::kResNet18, 3, 32, 10},
                      ZooCase{Arch::kResNet18, 1, 28, 100},
                      ZooCase{Arch::kVgg16, 3, 32, 10},
                      ZooCase{Arch::kVgg16, 3, 32, 100},
                      // 28x28 input: VGG16 must skip pools once the map
                      // reaches 1x1 (regression for the Table I crash).
                      ZooCase{Arch::kVgg16, 1, 28, 10}));

TEST(Zoo, ArchNamesRoundTrip) {
  for (const Arch a : {Arch::kLeNet, Arch::kAlexNet, Arch::kResNet18,
                       Arch::kVgg16}) {
    EXPECT_EQ(arch_by_name(arch_name(a)), a);
  }
  EXPECT_THROW(arch_by_name("GoogLeNet"), InvalidArgument);
}

TEST(Zoo, InvalidConfigThrows) {
  ModelConfig cfg;
  cfg.num_classes = 1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = ModelConfig{};
  cfg.width = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(Zoo, MonolithicMatchesSplitBuild) {
  Rng rng1(21), rng2(21);
  const ModelConfig cfg{Arch::kLeNet, 1, 28, 28, 10, 0.5};
  MainBranch split = build_main_branch(cfg, rng1);
  auto mono = build_monolithic(cfg, rng2);

  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng1);
  const Tensor via_split =
      split.rest->forward(split.conv1->forward(x, false), false);
  const Tensor via_mono = mono->forward(x, false);
  EXPECT_LT(max_abs_diff(via_split, via_mono), 1e-5f);
  EXPECT_EQ(mono->size(), split.conv1->size() + split.rest->size());
}

TEST(Zoo, FullWidthSizesLandNearPaperTable1) {
  // Paper Table I (CIFAR10 column): LeNet ~1.7 MB, AlexNet ~91 MB,
  // ResNet18 ~44 MB, VGG16 ~59 MB. Allow generous bands -- we match the
  // architecture family, not the authors' exact head widths.
  Rng rng(22);
  auto size_mb = [&](Arch arch) {
    const ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
    MainBranch mb = build_main_branch(cfg, rng);
    const double bytes = static_cast<double>(
        mb.conv1->param_bytes() + mb.rest->param_bytes());
    return bytes / (1024.0 * 1024.0);
  };
  EXPECT_NEAR(size_mb(Arch::kLeNet), 1.7, 1.2);
  EXPECT_NEAR(size_mb(Arch::kAlexNet), 91.0, 35.0);
  EXPECT_NEAR(size_mb(Arch::kResNet18), 43.7, 12.0);
  EXPECT_NEAR(size_mb(Arch::kVgg16), 57.6, 18.0);
}

TEST(Zoo, BinaryBranchIsMuchSmallerThanMainBranch) {
  Rng rng(23);
  for (const Arch arch : {Arch::kAlexNet, Arch::kResNet18, Arch::kVgg16}) {
    const ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
    core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
    const std::int64_t main_bytes =
        net.shared_stage().param_bytes() + net.main_rest().param_bytes();
    // Paper: 16x-30x smaller.
    EXPECT_GT(main_bytes, blob_bytes(net, cfg) * 10)
        << arch_name(arch) << " branch not small enough";
  }
}

TEST(Zoo, BranchConfigSweepsChangeStructure) {
  Rng rng(24);
  BinaryBranchConfig bc;
  bc.n_binary_conv = 2;
  bc.n_binary_fc = 2;
  auto b1 = build_binary_branch(bc, 16, 16, 16, 10, rng);
  bc.n_binary_conv = 0;
  bc.n_binary_fc = 1;
  auto b2 = build_binary_branch(bc, 16, 16, 16, 10, rng);
  EXPECT_GT(b1->size(), b2->size());
  bc.n_binary_conv = 0;
  bc.n_binary_fc = 0;
  EXPECT_THROW(build_binary_branch(bc, 16, 16, 16, 10, rng), Error);
}

TEST(Accounting, ProfileCoversEveryLayer) {
  Rng rng(25);
  const ModelConfig cfg{Arch::kLeNet, 1, 28, 28, 10, 0.5};
  auto mono = build_monolithic(cfg, rng);
  const auto profiles = profile_layers(*mono, Shape{1, 28, 28});
  EXPECT_EQ(profiles.size(), mono->size());
  const ModelProfile mp = summarize(profiles);
  EXPECT_EQ(mp.total_flops, mono->flops_per_sample());
  EXPECT_EQ(mp.total_param_bytes, mono->param_bytes());
  // The final layer must output the 10 class logits.
  EXPECT_EQ(profiles.back().output_shape, (Shape{10}));
}

TEST(Accounting, BinaryLayersAreFlagged) {
  Rng rng(26);
  auto branch =
      build_binary_branch(default_branch(Arch::kLeNet), 8, 14, 14, 10, rng);
  const auto profiles = profile_layers(*branch, Shape{8, 14, 14});
  int binary_count = 0;
  for (const auto& p : profiles) {
    EXPECT_EQ(p.is_binary, p.kind.starts_with("binary_")) << p.kind;
    if (p.is_binary) ++binary_count;
  }
  EXPECT_EQ(binary_count, 2);  // one binary conv + one binary fc
}

TEST(Int8Payload, RoughlyQuartersAFullPrecisionModel) {
  Rng rng(5);
  const ModelConfig cfg{Arch::kAlexNet, 3, 32, 32, 10, 0.5};
  auto mono = build_monolithic(cfg, rng);
  const std::int64_t float_bytes = mono->param_bytes();
  const std::int64_t int8_bytes = int8_payload_bytes(*mono);
  EXPECT_GT(float_bytes, int8_bytes * 3);
  EXPECT_LT(float_bytes, int8_bytes * 5);
}

TEST(Int8Payload, BinaryPayloadStillWinsByFar) {
  // The compression ablation's headline ordering: LCRS's browser blob <<
  // int8 model << float model, on the full-width AlexNet.
  Rng rng(6);
  const ModelConfig cfg{Arch::kAlexNet, 3, 32, 32, 10, 1.0};
  auto mono = build_monolithic(cfg, rng);
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  EXPECT_GT(int8_payload_bytes(*mono), blob_bytes(net, cfg) * 10);
}

TEST(Accounting, FormatMb) {
  EXPECT_EQ(format_mb(1024 * 1024), "1.000");
  EXPECT_EQ(format_mb(1536 * 1024), "1.500");
}

}  // namespace
}  // namespace lcrs::models
