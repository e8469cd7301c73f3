// Tests for the LCRS_CHECK_NUMERICS runtime sanitizer: the toggle, the
// scanner's NaN/Inf/magnitude rules and index reporting, and -- the part
// that matters operationally -- that a NaN injected mid-network is
// attributed to the right layer / param / webinfer op, not just "somewhere".
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/numerics.h"
#include "core/composite.h"
#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "webinfer/engine.h"
#include "webinfer/export.h"

namespace lcrs {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Runs `fn`, requires it to throw NumericsError, and returns the message.
template <typename Fn>
std::string numerics_message(Fn fn) {
  try {
    fn();
  } catch (const NumericsError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected NumericsError";
  return "";
}

TEST(Numerics, DisabledScanIsANoop) {
  numerics::ScopedEnable off(false);
  const float bad[] = {1.0f, kNaN, kInf};
  EXPECT_NO_THROW(numerics::check_values("stage", "tensor", bad, 3));
}

TEST(Numerics, ScopedEnableRestoresPriorState) {
  const bool before = numerics::enabled();
  {
    numerics::ScopedEnable on(true);
    EXPECT_TRUE(numerics::enabled());
  }
  EXPECT_EQ(numerics::enabled(), before);
}

TEST(Numerics, ReportsKindAndFirstBadIndex) {
  numerics::ScopedEnable on;
  const float with_nan[] = {0.0f, 1.0f, kNaN, kNaN};
  std::string msg = numerics_message(
      [&] { numerics::check_values("forward output", "probe", with_nan, 4); });
  EXPECT_NE(msg.find("NaN"), std::string::npos) << msg;
  EXPECT_NE(msg.find("index 2 of 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("forward output of probe"), std::string::npos) << msg;

  const float with_inf[] = {0.0f, -kInf};
  msg = numerics_message(
      [&] { numerics::check_values("gradient", "g", with_inf, 2); });
  EXPECT_NE(msg.find("Inf"), std::string::npos) << msg;
  EXPECT_NE(msg.find("index 1 of 2"), std::string::npos) << msg;
}

TEST(Numerics, MagnitudeLimitIsConfigurable) {
  numerics::ScopedEnable on;
  const double old_limit = numerics::magnitude_limit();
  numerics::set_magnitude_limit(10.0);
  const float big[] = {1.0f, -100.0f};
  const std::string msg = numerics_message(
      [&] { numerics::check_values("value", "w", big, 2); });
  EXPECT_NE(msg.find("magnitude"), std::string::npos) << msg;
  EXPECT_NE(msg.find("index 1"), std::string::npos) << msg;

  // A non-positive limit disables the magnitude rule entirely.
  numerics::set_magnitude_limit(0.0);
  EXPECT_NO_THROW(numerics::check_values("value", "w", big, 2));
  numerics::set_magnitude_limit(old_limit);
}

TEST(Numerics, CleanNetworkPassesWithSanitizerOn) {
  numerics::ScopedEnable on;
  Rng rng(7);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(6, 5, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::Linear>(5, 3, rng);
  const Tensor x = Tensor::randn(Shape{2, 6}, rng);
  const Tensor y = seq.forward(x, /*train=*/true);
  EXPECT_NO_THROW((void)seq.backward(Tensor::randn(y.shape(), rng)));
}

TEST(Numerics, ForwardNanIsAttributedToTheRightLayer) {
  numerics::ScopedEnable on;
  Rng rng(7);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(6, 5, rng)
      .emplace<nn::ReLU>()
      .emplace<nn::Linear>(5, 3, rng);
  // Poison one weight of the LAST linear (child index 2): layers 0 and 1
  // stay finite, so the first report must name layer 2, not its inputs.
  auto& last = static_cast<nn::Linear&>(seq.layer(2));
  last.weight().value[0] = kNaN;

  const Tensor x = Tensor::randn(Shape{2, 6}, rng);
  const std::string msg =
      numerics_message([&] { (void)seq.forward(x, false); });
  EXPECT_NE(msg.find("layer 2 (linear)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("forward output"), std::string::npos) << msg;
}

/// Identity forward; injects a NaN into the gradient on the way back.
class NanBackward : public nn::Layer {
 public:
  Tensor forward(const Tensor& input, bool) override { return input; }
  Tensor backward(const Tensor& grad_output) override {
    Tensor g = grad_output;
    g[0] = kNaN;
    return g;
  }
  std::string kind() const override { return "nan_backward"; }
};

TEST(Numerics, BackwardNanIsAttributedToTheRightLayer) {
  numerics::ScopedEnable on;
  Rng rng(9);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(4, 4, rng)
      .emplace<NanBackward>()
      .emplace<nn::Linear>(4, 2, rng);
  const Tensor y = seq.forward(Tensor::randn(Shape{1, 4}, rng), true);
  const std::string msg = numerics_message(
      [&] { (void)seq.backward(Tensor::ones(y.shape())); });
  EXPECT_NE(msg.find("layer 1 (nan_backward)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("backward"), std::string::npos) << msg;
}

TEST(Numerics, OptimizerRejectsNanGradientByParamName) {
  numerics::ScopedEnable on;
  Rng rng(11);
  nn::Linear lin(3, 2, rng);
  lin.weight().grad_buffer()[1] = kNaN;
  nn::Sgd opt(0.1);
  const std::string msg =
      numerics_message([&] { opt.step(lin.params()); });
  EXPECT_NE(msg.find("step gradient"), std::string::npos) << msg;
  EXPECT_NE(msg.find("linear.weight"), std::string::npos) << msg;
}

TEST(Numerics, OptimizerRejectsNonFiniteUpdatedValue) {
  numerics::ScopedEnable on;
  Rng rng(13);
  nn::Linear lin(3, 2, rng);
  lin.weight().value[0] = kInf;  // zero grads keep it Inf through the step
  nn::Adam opt(0.001);
  const std::string msg =
      numerics_message([&] { opt.step(lin.params()); });
  EXPECT_NE(msg.find("updated value"), std::string::npos) << msg;
  EXPECT_NE(msg.find("linear.weight"), std::string::npos) << msg;
}

TEST(Numerics, WebinferEngineAttributesNanToTheOffendingOp) {
  numerics::ScopedEnable on;
  Rng rng(17);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const webinfer::Engine engine(
      webinfer::export_browser_model(net, 1, 28, 28));

  Tensor x = Tensor::randn(Shape{1, 1, 28, 28}, rng);
  EXPECT_NO_THROW((void)engine.forward(x));  // clean input stays clean

  x[0] = kNaN;  // the first conv consumes it, so op 0 must be named
  const std::string msg = numerics_message([&] { (void)engine.forward(x); });
  EXPECT_NE(msg.find("webinfer op 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("op output"), std::string::npos) << msg;
}

}  // namespace
}  // namespace lcrs
