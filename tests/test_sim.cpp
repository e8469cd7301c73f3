// Simulation substrate tests: link math, jitter bounds, device pricing,
// and the combined cost model, with monotonicity properties.
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sim/cost_model.h"
#include "sim/queueing.h"

namespace lcrs::sim {
namespace {

TEST(Link, PresetsMatchPaperSetting) {
  const LinkSpec l = lte_4g();
  EXPECT_DOUBLE_EQ(l.downlink_mbps, 10.0);
  EXPECT_DOUBLE_EQ(l.uplink_mbps, 3.0);
}

TEST(Link, TransferMath) {
  NetworkModel net{LinkSpec{8.0, 4.0, 20.0, 0.0}};
  // 1 MB over 8 Mb/s = 1 s + half RTT.
  EXPECT_NEAR(net.download_ms(1000000), 1000.0 + 10.0, 1e-6);
  // 1 MB over 4 Mb/s = 2 s + half RTT.
  EXPECT_NEAR(net.upload_ms(1000000), 2000.0 + 10.0, 1e-6);
  EXPECT_DOUBLE_EQ(net.download_ms(0), 0.0);
  EXPECT_DOUBLE_EQ(net.round_trip_ms(), 20.0);
}

TEST(Link, FaultSpecPresetsAndValidation) {
  EXPECT_TRUE(reliable_link().faultless());
  const FaultSpec flaky = flaky_link();
  flaky.validate();
  EXPECT_FALSE(flaky.faultless());

  FaultSpec bad;
  bad.drop_prob = -0.1;
  EXPECT_THROW(bad.validate(), Error);
  bad = FaultSpec{};
  bad.close_prob = 2.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = FaultSpec{};
  bad.delay_ms = -1.0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(Link, MonotoneInBytes) {
  NetworkModel net{lte_4g()};
  double prev = -1.0;
  for (std::int64_t bytes = 1; bytes < (1 << 24); bytes *= 4) {
    const double ms = net.upload_ms(bytes);
    EXPECT_GT(ms, prev);
    prev = ms;
  }
}

TEST(Link, JitterStaysWithinBounds) {
  LinkSpec spec = lte_4g();
  spec.jitter_frac = 0.25;
  NetworkModel net{spec};
  const double base = net.download_ms(1 << 20);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double j = net.download_ms_jittered(1 << 20, rng);
    EXPECT_GE(j, base * 0.749);
    EXPECT_LE(j, base * 1.251);
  }
}

TEST(Link, ZeroJitterIsDeterministic) {
  NetworkModel net{lte_4g()};
  Rng rng(2);
  EXPECT_DOUBLE_EQ(net.upload_ms_jittered(12345, rng), net.upload_ms(12345));
}

TEST(Link, InvalidSpecThrows) {
  EXPECT_THROW(NetworkModel(LinkSpec{0.0, 1.0, 10.0, 0.0}), Error);
  EXPECT_THROW(NetworkModel(LinkSpec{1.0, 1.0, 10.0, 1.5}), Error);
}

TEST(Device, ComputeTimeScalesWithFlops) {
  DeviceModel dev{DeviceSpec{"test", 1.0, 10.0}};  // 1 GFLOP/s
  EXPECT_NEAR(dev.compute_ms(1000000000), 1000.0, 1e-9);
  EXPECT_NEAR(dev.compute_binary_ms(1000000000), 100.0, 1e-9);
}

TEST(Device, PresetsOrderedByPower) {
  EXPECT_LT(mobile_web_browser().gflops, mobile_native().gflops);
  EXPECT_LT(mobile_native().gflops, edge_server().gflops);
  EXPECT_GT(mobile_web_browser().binary_speedup, 1.0);
}

TEST(CostModel, BinaryLayersPricedThroughXnorPath) {
  const CostModel cost = CostModel::paper_default();
  std::vector<models::LayerProfile> layers(2);
  layers[0].flops = 1000000;
  layers[0].is_binary = false;
  layers[1].flops = 1000000;
  layers[1].is_binary = true;
  const double float_ms = cost.browser_compute_ms(layers, 0, 1);
  const double binary_ms = cost.browser_compute_ms(layers, 1, 2);
  EXPECT_NEAR(float_ms / binary_ms,
              mobile_web_browser().binary_speedup, 1e-6);
}

TEST(CostModel, RealModelEdgeFasterThanBrowser) {
  Rng rng(1);
  const models::ModelConfig cfg{models::Arch::kAlexNet, 3, 32, 32, 10, 0.25};
  auto model = models::build_monolithic(cfg, rng);
  const auto profiles = models::profile_layers(*model, Shape{3, 32, 32});
  const CostModel cost = CostModel::paper_default();
  EXPECT_GT(cost.browser_compute_ms(profiles, 0, profiles.size()),
            50.0 * cost.edge_compute_ms(profiles, 0, profiles.size()));
}

TEST(Queueing, IdleServerHasNoWait) {
  const QueueStats st = md1_stats(0.0, 10.0);
  EXPECT_TRUE(st.stable);
  EXPECT_DOUBLE_EQ(st.utilization, 0.0);
  EXPECT_DOUBLE_EQ(st.avg_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(st.avg_response_ms, 10.0);
}

TEST(Queueing, PollaczekKhinchineAtHalfLoad) {
  // rho = 0.5 with 10 ms deterministic service: Wq = 0.5*10 / (2*0.5) = 5.
  const QueueStats st = md1_stats(50.0, 10.0);
  EXPECT_TRUE(st.stable);
  EXPECT_NEAR(st.utilization, 0.5, 1e-12);
  EXPECT_NEAR(st.avg_wait_ms, 5.0, 1e-9);
  EXPECT_NEAR(st.avg_response_ms, 15.0, 1e-9);
  // Little's law: Lq = lambda * Wq = 50/s * 5ms = 0.25.
  EXPECT_NEAR(st.avg_queue_len, 0.25, 1e-9);
}

TEST(Queueing, OverloadIsUnstable) {
  const QueueStats st = md1_stats(200.0, 10.0);  // rho = 2
  EXPECT_FALSE(st.stable);
  EXPECT_TRUE(std::isinf(st.avg_response_ms));
}

TEST(Queueing, WaitIsMonotoneInLoad) {
  double prev = -1.0;
  for (double lam = 10.0; lam < 100.0; lam += 10.0) {
    const QueueStats st = md1_stats(lam, 9.9);
    EXPECT_GT(st.avg_wait_ms, prev);
    prev = st.avg_wait_ms;
  }
}

TEST(Queueing, MaxSustainableRateHitsTheTarget) {
  const double rate = max_sustainable_rate(10.0, 50.0);
  EXPECT_GT(rate, 0.0);
  const QueueStats st = md1_stats(rate, 10.0);
  EXPECT_TRUE(st.stable);
  EXPECT_NEAR(st.avg_response_ms, 50.0, 0.5);
  // Slower service or a tighter SLO must both reduce capacity.
  EXPECT_LT(max_sustainable_rate(20.0, 50.0), rate);
  EXPECT_LT(max_sustainable_rate(10.0, 20.0), rate);
  EXPECT_DOUBLE_EQ(max_sustainable_rate(60.0, 50.0), 0.0);
}

TEST(Queueing, LcrsCapacityMultiplier) {
  EdgeLoadProfile load;
  load.full_model_ms = 10.0;
  load.rest_only_ms = 8.0;
  load.exit_fraction = 0.75;
  EXPECT_NEAR(load.lcrs_effective_ms(), 2.0, 1e-12);
  EXPECT_NEAR(load.capacity_multiplier(), 5.0, 1e-12);
  load.exit_fraction = 1.0;  // everything exits: unbounded capacity
  EXPECT_GT(load.capacity_multiplier(), 1e6);
}

TEST(Energy, MillijouleArithmetic) {
  const EnergyModel e{EnergySpec{2.0, 1.5, 1.0}};
  EXPECT_DOUBLE_EQ(e.compute_mj(100.0), 200.0);  // 2 W * 100 ms
  EXPECT_DOUBLE_EQ(e.tx_mj(100.0), 150.0);
  EXPECT_DOUBLE_EQ(e.rx_mj(100.0), 100.0);
}

TEST(Energy, InvalidSpecThrows) {
  EXPECT_THROW(EnergyModel(EnergySpec{0.0, 1.0, 1.0}), Error);
  EXPECT_THROW(EnergyModel(EnergySpec{1.0, -1.0, 1.0}), Error);
}

TEST(Energy, TransmitCostsMoreThanReceive) {
  // Radio convention baked into the default spec: TX > RX.
  const EnergySpec spec = mobile_device_energy();
  EXPECT_GT(spec.tx_watts, spec.rx_watts);
}

TEST(Scenario, DefaultsMatchCalibratedSession) {
  const Scenario s;
  EXPECT_EQ(s.session_samples, 20);
  EXPECT_GT(s.camera_frame_bytes, 100 * 1024);
}

}  // namespace
}  // namespace lcrs::sim
