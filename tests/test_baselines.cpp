// Baseline approach tests: cost arithmetic of Mobile-only / Edge-only,
// partition choices of Neurosurgeon / Edgent, the LCRS evaluator and its
// encoder-measured bytes, LocalRuntime's pricing, and the Table II
// ordering properties the paper reports.
#include <gtest/gtest.h>

#include "baselines/edge_only.h"
#include "baselines/edgent.h"
#include "baselines/lcrs_approach.h"
#include "baselines/local_runtime.h"
#include "baselines/mobile_only.h"
#include "baselines/neurosurgeon.h"
#include "core/composite.h"
#include "edge/protocol.h"
#include "models/accounting.h"
#include "webinfer/export.h"

namespace lcrs::baselines {
namespace {

ModelUnderTest make_model(models::Arch arch, double width = 1.0) {
  Rng rng(5);
  const models::ModelConfig cfg{arch, 3, 32, 32, 10, width};
  auto mono = models::build_monolithic(cfg, rng);
  ModelUnderTest m;
  m.name = models::arch_name(arch);
  m.layers = models::profile_layers(*mono, Shape{3, 32, 32});
  return m;
}

LcrsModel make_lcrs_model(models::Arch arch, double exit_fraction) {
  Rng rng(6);
  const models::ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  return lcrs_model_of(net, Shape{3, 32, 32}, exit_fraction);
}

TEST(MobileOnly, CostDecomposes) {
  const auto model = make_model(models::Arch::kLeNet);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  const ApproachCost c = evaluate_mobile_only(model, cost, scenario);
  EXPECT_NEAR(c.total_ms, c.comm_ms + c.compute_ms, 1e-9);
  EXPECT_EQ(c.browser_model_bytes, model.total_model_bytes());
  // Comm is only the amortized model download.
  EXPECT_NEAR(c.comm_ms,
              cost.network().download_ms(c.browser_model_bytes) /
                  static_cast<double>(scenario.session_samples),
              1e-9);
}

TEST(EdgeOnly, PaysFrameUploadEverySample) {
  const auto model = make_model(models::Arch::kVgg16);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  const ApproachCost c = evaluate_edge_only(model, cost, scenario);
  EXPECT_EQ(c.browser_model_bytes, 0);
  EXPECT_GT(c.comm_ms,
            cost.network().upload_ms(scenario.camera_frame_bytes) - 1.0);
}

TEST(Neurosurgeon, PartitionBeatsEndpointsUnderNativeProfile) {
  const auto model = make_model(models::Arch::kAlexNet);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  const sim::DeviceModel native{sim::mobile_native()};
  const NeurosurgeonDecision d =
      neurosurgeon_partition(model, cost, scenario, native);
  // The decision must be at least as good as either all-device or
  // all-edge execution under its own objective.
  EXPECT_LE(d.cut, model.layers.size());
  const double all_device =
      cost.compute_ms(model.layers, 0, model.layers.size(), native);
  const double all_edge =
      cost.network().upload_ms(scenario.camera_frame_bytes) +
      cost.edge_compute_ms(model.layers, 0, model.layers.size()) +
      cost.network().download_ms(scenario.result_bytes);
  EXPECT_LE(d.predicted_native_ms, all_device + 1e-9);
  EXPECT_LE(d.predicted_native_ms, all_edge + 1e-9);
}

TEST(Neurosurgeon, WebExecutionPaysModelLoad) {
  const auto model = make_model(models::Arch::kAlexNet);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const ApproachCost c = evaluate_neurosurgeon(model, cost, sim::Scenario{});
  EXPECT_GT(c.browser_model_bytes, 0);
  EXPECT_GT(c.total_ms, 0.0);
  EXPECT_NEAR(c.total_ms, c.comm_ms + c.compute_ms, 1e-9);
}

// A partition cut's upload is the request frame that would carry the real
// activation there: 4-D after conv and pool layers, 2-D after flatten and
// FC layers. Cut 0 uploads the camera frame itself.
TEST(Partition, UploadBytesAreTheEncodedActivation) {
  for (const models::ModelConfig& cfg :
       {models::ModelConfig{models::Arch::kLeNet, 3, 32, 32, 10, 1.0},
        models::ModelConfig{models::Arch::kAlexNet, 3, 32, 32, 10, 0.5}}) {
    SCOPED_TRACE(models::arch_name(cfg.arch));
    Rng rng(8);
    auto mono = models::build_monolithic(cfg, rng);
    ModelUnderTest model;
    model.layers = models::profile_layers(*mono, Shape{3, 32, 32});
    const sim::Scenario scenario;
    EXPECT_EQ(model.upload_bytes(0, scenario), scenario.camera_frame_bytes);

    Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
    bool saw_4d = false, saw_2d = false;
    for (std::size_t cut = 1; cut <= model.layers.size(); ++cut) {
      x = mono->layer(cut - 1).forward(x, false);
      saw_4d |= x.rank() == 4;
      saw_2d |= x.rank() == 2;
      const edge::Frame request{edge::MsgType::kCompleteRequest,
                                edge::make_complete_request(x)};
      EXPECT_EQ(upload_frame_bytes(model.layers[cut - 1].output_shape),
                std::ssize(edge::encode_frame(request)))
          << "cut " << cut << " after " << model.layers[cut - 1].kind;
    }
    EXPECT_TRUE(saw_4d && saw_2d);
  }
}

TEST(Edgent, RespectsDepthConstraint) {
  const auto model = make_model(models::Arch::kVgg16);
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::DeviceModel native{sim::mobile_native()};
  EdgentConfig config;
  config.min_depth_fraction = 0.8;
  const EdgentDecision d =
      edgent_search(model, cost, sim::Scenario{}, native, config);
  EXPECT_GE(d.exit, static_cast<std::size_t>(
                        0.8 * static_cast<double>(model.layers.size())));
  EXPECT_LE(d.cut, d.exit);
}

TEST(Edgent, EvaluationIncludesBranchOverhead) {
  const auto model = make_model(models::Arch::kLeNet);
  const sim::CostModel cost = sim::CostModel::paper_default();
  EdgentConfig config;
  const ApproachCost edgent = evaluate_edgent(model, cost, sim::Scenario{},
                                              config);
  const ApproachCost neuro =
      evaluate_neurosurgeon(model, cost, sim::Scenario{});
  // Edgent ships the extra exit-branch weights.
  EXPECT_GT(edgent.browser_model_bytes, neuro.browser_model_bytes);
}

TEST(Lcrs, BrowserModelIsSmallAndPacked) {
  const LcrsModel m = make_lcrs_model(models::Arch::kAlexNet, 0.8);
  std::int64_t float_branch = 0;
  for (const auto& l : m.branch) float_branch += l.param_bytes;
  std::int64_t shared_bytes = 0;
  for (const auto& l : m.shared) shared_bytes += l.param_bytes;
  EXPECT_LT(m.browser_model_bytes, shared_bytes + float_branch);
}

// lcrs_model_of's two byte counts are what the encoders write: the request
// frame that uploads this net's conv1 map, and the serialized blob.
TEST(Lcrs, BytesComeFromTheRealEncoders) {
  for (const models::ModelConfig& cfg :
       {models::ModelConfig{models::Arch::kLeNet, 1, 28, 28, 10, 1.0},
        models::ModelConfig{models::Arch::kAlexNet, 3, 32, 32, 10, 0.5}}) {
    SCOPED_TRACE(models::arch_name(cfg.arch));
    Rng rng(7);
    core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
    const LcrsModel m =
        lcrs_model_of(net, Shape{cfg.in_channels, cfg.in_h, cfg.in_w}, 0.8);
    const Tensor conv1_map = net.shared_stage().forward(
        Tensor::randn(Shape{1, cfg.in_channels, cfg.in_h, cfg.in_w}, rng),
        false);
    const edge::Frame request{edge::MsgType::kCompleteRequest,
                              edge::make_complete_request(conv1_map)};
    EXPECT_EQ(m.upload_bytes, std::ssize(edge::encode_frame(request)));
    EXPECT_EQ(m.browser_model_bytes,
              std::ssize(webinfer::serialize(webinfer::export_browser_model(
                  net, cfg.in_channels, cfg.in_h, cfg.in_w))));
  }
}

TEST(Lcrs, HigherExitFractionIsFaster) {
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  LcrsModel m = make_lcrs_model(models::Arch::kResNet18, 0.9);
  const double fast = evaluate_lcrs(m, cost, scenario).total_ms;
  m.exit_fraction = 0.1;
  const double slow = evaluate_lcrs(m, cost, scenario).total_ms;
  EXPECT_LT(fast, slow);
}

TEST(Lcrs, PathCostsBracketAverage) {
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  const LcrsModel m = make_lcrs_model(models::Arch::kResNet18, 0.7);
  const ApproachCost avg = evaluate_lcrs(m, cost, scenario);
  const LcrsPathCosts paths = lcrs_path_costs(m, cost, scenario);
  EXPECT_LT(paths.exit_binary_ms, paths.exit_main_ms);
  EXPECT_GE(avg.total_ms, paths.exit_binary_ms - 1e-6);
  EXPECT_LE(avg.total_ms, paths.exit_main_ms + 1e-6);
}

TEST(Lcrs, InvalidExitFractionThrows) {
  LcrsModel m = make_lcrs_model(models::Arch::kLeNet, 1.5);
  EXPECT_THROW(
      evaluate_lcrs(m, sim::CostModel::paper_default(), sim::Scenario{}),
      Error);
}

// LocalRuntime prices through lcrs_path_costs: on a link without jitter
// each step plus the amortized load is exactly one of the two paths.
TEST(LocalRuntime, ZeroJitterStepsMatchPathCosts) {
  Rng rng(8);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 1.0};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const sim::CostModel cost = sim::CostModel::paper_default();
  ASSERT_EQ(cost.network().spec().jitter_frac, 0.0);
  const LcrsPathCosts paths = lcrs_path_costs(
      lcrs_model_of(net, Shape{1, 28, 28}, 0.5), cost, sim::Scenario{});
  const Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  // tau = 1.1 exits every sample at the browser; tau = 0 exits none.
  for (const double tau : {1.1, 0.0}) {
    LocalRuntime runtime(net, core::ExitPolicy{tau}, cost, Shape{1, 28, 28});
    const SimStep step = runtime.classify(x, rng);
    EXPECT_DOUBLE_EQ(runtime.amortized_load_ms() + step.total_ms(),
                     tau > 1.0 ? paths.exit_binary_ms : paths.exit_main_ms);
  }
}

TEST(TableII, OrderingHoldsForDeepNetworks) {
  // The paper's headline: for AlexNet/ResNet18/VGG16, LCRS beats
  // Neurosurgeon, Edgent and Mobile-only by large factors.
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  for (const auto arch :
       {models::Arch::kAlexNet, models::Arch::kResNet18,
        models::Arch::kVgg16}) {
    const auto model = make_model(arch);
    const LcrsModel lm = make_lcrs_model(arch, 0.75);
    const double lcrs = evaluate_lcrs(lm, cost, scenario).total_ms;
    const double mobile = evaluate_mobile_only(model, cost, scenario).total_ms;
    const double neuro = evaluate_neurosurgeon(model, cost, scenario).total_ms;
    const double edgent = evaluate_edgent(model, cost, scenario).total_ms;
    EXPECT_LT(lcrs * 3.0, neuro) << models::arch_name(arch);
    EXPECT_LT(lcrs * 3.0, edgent) << models::arch_name(arch);
    EXPECT_LT(lcrs * 10.0, mobile) << models::arch_name(arch);
    EXPECT_LT(neuro, mobile) << models::arch_name(arch);
  }
}

TEST(TableIII, LcrsCommBeatsBaselinesOnDeepNetworks) {
  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  // AlexNet / ResNet18: LCRS has the lowest communication cost, as in the
  // paper's Table III. (On VGG16 a latency-OPTIMAL Neurosurgeon cut lands
  // after pool2 with a 1 MB slice and 32 KB uploads and undercuts LCRS's
  // conv1-map uploads on pure comm; the paper pinned Neurosurgeon to its
  // literature partition points instead -- see EXPERIMENTS.md.)
  for (const auto arch : {models::Arch::kAlexNet, models::Arch::kResNet18}) {
    const auto model = make_model(arch);
    const LcrsModel lm = make_lcrs_model(arch, 0.78);
    const double lcrs = evaluate_lcrs(lm, cost, scenario).comm_ms;
    EXPECT_LT(lcrs, evaluate_mobile_only(model, cost, scenario).comm_ms)
        << models::arch_name(arch);
    EXPECT_LT(lcrs, evaluate_neurosurgeon(model, cost, scenario).comm_ms)
        << models::arch_name(arch);
  }
  // VGG16: LCRS comm still far below mobile-only.
  const auto vgg = make_model(models::Arch::kVgg16);
  const LcrsModel lvgg = make_lcrs_model(models::Arch::kVgg16, 0.76);
  EXPECT_LT(evaluate_lcrs(lvgg, cost, scenario).comm_ms,
            evaluate_mobile_only(vgg, cost, scenario).comm_ms);
}

}  // namespace
}  // namespace lcrs::baselines
