// Observability tests: metric registry semantics (naming, collision
// rules, percentiles, reset-keeps-references), snapshot merging,
// trace spans and sinks, trace-id minting, and concurrent hammering of
// counters/histograms/span emission (the TSan target for this layer).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/obs/metric_names.h"
#include "common/obs/metrics.h"
#include "common/obs/trace.h"

namespace lcrs::obs {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketsCountSumMinMax) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // bucket 0 (<= 1)
  h.record(1.0);    // bucket 0 (== bound goes into that bucket)
  h.record(5.0);    // bucket 1
  h.record(500.0);  // overflow bucket
  const HistogramSnapshot s = h.snapshot("t");
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 506.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 500.0);
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 2);
  EXPECT_EQ(s.counts[1], 1);
  EXPECT_EQ(s.counts[2], 0);
  EXPECT_EQ(s.counts[3], 1);
}

TEST(HistogramTest, PercentilesAreOrderedAndBounded) {
  Histogram h(default_latency_bounds_us());
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot("lat");
  const double p50 = s.percentile(0.5);
  const double p90 = s.percentile(0.9);
  const double p99 = s.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Interpolated values stay inside the observed range.
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
  // Coarse sanity: the median of 1..1000 lives in the right decade.
  EXPECT_GT(p50, 100.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(HistogramTest, EmptySnapshotIsZeroes) {
  Histogram h({1.0, 2.0});
  const HistogramSnapshot s = h.snapshot("e");
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

TEST(RegistryTest, NamesValidatedAndStable) {
  Registry reg;
  Counter& a = reg.counter("edge.server.requests");
  Counter& b = reg.counter("edge.server.requests");
  EXPECT_EQ(&a, &b);  // same instrument on re-lookup
  EXPECT_THROW(reg.counter(""), Error);
  EXPECT_THROW(reg.counter("Bad.Name"), Error);
  EXPECT_THROW(reg.counter("spaces not ok"), Error);
  EXPECT_THROW(reg.counter(".leading"), Error);
  EXPECT_THROW(reg.counter("trailing."), Error);
  EXPECT_THROW(reg.counter("double..dot"), Error);
}

TEST(RegistryTest, KindCollisionRejected) {
  Registry reg;
  reg.counter("a.b");
  EXPECT_THROW(reg.gauge("a.b"), Error);
  EXPECT_THROW(reg.histogram("a.b"), Error);
}

TEST(RegistryTest, HistogramBoundsMustMatchOnRelookup) {
  Registry reg;
  reg.histogram("h.x", {1.0, 2.0});
  EXPECT_NO_THROW(reg.histogram("h.x", {1.0, 2.0}));
  EXPECT_NO_THROW(reg.histogram("h.x"));  // empty = accept existing
  EXPECT_THROW(reg.histogram("h.x", {1.0, 3.0}), Error);
}

TEST(RegistryTest, ResetValuesKeepsReferences) {
  Registry reg;
  Counter& c = reg.counter("c.n");
  Histogram& h = reg.histogram("h.n", {1.0, 2.0});
  c.add(5);
  h.record(1.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  c.add(1);  // the old reference still works
  EXPECT_EQ(reg.counter("c.n").value(), 1);
}

TEST(RegistryTest, SnapshotFindTextJson) {
  Registry reg;
  reg.counter("z.count").add(3);
  reg.gauge("a.depth").set(2.5);
  reg.histogram("m.lat_us", {10.0, 100.0}).record(42.0);
  const Snapshot s = reg.snapshot();

  ASSERT_NE(s.find_counter("z.count"), nullptr);
  EXPECT_EQ(s.find_counter("z.count")->value, 3);
  ASSERT_NE(s.find_gauge("a.depth"), nullptr);
  EXPECT_DOUBLE_EQ(s.find_gauge("a.depth")->value, 2.5);
  ASSERT_NE(s.find_histogram("m.lat_us"), nullptr);
  EXPECT_EQ(s.find_histogram("m.lat_us")->count, 1);
  EXPECT_EQ(s.find_counter("missing.name"), nullptr);

  const std::string text = s.to_text();
  EXPECT_NE(text.find("z.count"), std::string::npos);
  EXPECT_NE(text.find("a.depth"), std::string::npos);
  EXPECT_NE(text.find("m.lat_us"), std::string::npos);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"z.count\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(SnapshotMerge, UnionStaysSortedInEverySection) {
  Registry a;
  Registry b;
  a.counter("m.count").add(1);
  b.counter("a.count").add(2);
  a.counter("z.count").add(3);
  b.gauge("y.depth").set(1.0);
  a.gauge("b.depth").set(2.0);
  b.histogram("k.lat_us").record(5.0);
  a.histogram("c.lat_us").record(6.0);
  a.histogram("x.lat_us").record(7.0);

  const Snapshot m = Snapshot::merge({a.snapshot(), b.snapshot()});
  const auto names = [](const auto& section) {
    std::vector<std::string> out;
    for (const auto& i : section) out.push_back(i.name);
    return out;
  };
  EXPECT_EQ(names(m.counters),
            (std::vector<std::string>{"a.count", "m.count", "z.count"}));
  EXPECT_EQ(names(m.gauges), (std::vector<std::string>{"b.depth", "y.depth"}));
  EXPECT_EQ(names(m.histograms),
            (std::vector<std::string>{"c.lat_us", "k.lat_us", "x.lat_us"}));
  EXPECT_EQ(m.find_counter("a.count")->value, 2);
  EXPECT_EQ(m.find_histogram("x.lat_us")->count, 1);
  EXPECT_TRUE(Snapshot::merge({}).counters.empty());
}

TEST(SnapshotMerge, NameInTwoInputsThrows) {
  Registry a;
  Registry b;
  a.counter("edge.server.requests").add(1);
  b.counter("edge.server.requests").add(1);
  EXPECT_THROW(Snapshot::merge({a.snapshot(), b.snapshot()}), Error);

  // Across kinds too: one Prometheus name cannot carry two types.
  Registry c;
  c.gauge("edge.server.requests").set(1.0);
  EXPECT_THROW(Snapshot::merge({a.snapshot(), c.snapshot()}), Error);
}

TEST(MetricNames, BuildersProduceValidNames) {
  Registry reg;
  // Every builder output must pass registration validation.
  EXPECT_NO_THROW(reg.histogram(names::layer_metric(3, "conv2d", "forward_us")));
  EXPECT_NO_THROW(reg.histogram(names::webinfer_op_metric(0, "binconv")));
  EXPECT_NO_THROW(reg.gauge(names::baseline_gauge("Edge-Only (TF)", "total_ms")));
  EXPECT_EQ(names::layer_metric(3, "conv2d", "forward_us"),
            "nn.layer.3.conv2d.forward_us");
  EXPECT_EQ(names::webinfer_op_metric(0, "binconv"), "webinfer.op.0.binconv.us");
}

TEST(Profiling, ScopedToggleRestores) {
  const bool before = profiling_enabled();
  {
    ScopedProfiling on;
    EXPECT_TRUE(profiling_enabled());
    {
      ScopedProfiling off(false);
      EXPECT_FALSE(profiling_enabled());
    }
    EXPECT_TRUE(profiling_enabled());
  }
  EXPECT_EQ(profiling_enabled(), before);
}

// ---------------------------------------------------------------------
// Trace spans and sinks.

TEST(Trace, NextTraceIdNonzeroAndUnique) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = next_trace_id();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Trace, SteadyNowIsMonotonic) {
  const std::int64_t a = steady_now_ns();
  const std::int64_t b = steady_now_ns();
  EXPECT_GE(b, a);
}

TEST(Trace, SpanEmitsToInstalledSink) {
  RingBufferSink sink;
  ScopedTraceSink scoped(&sink);
  const std::uint64_t id = next_trace_id();
  { Span span(id, "test.stage"); }
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, id);
  EXPECT_EQ(spans[0].name, "test.stage");
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
  EXPECT_GE(spans[0].duration_us(), 0.0);
}

TEST(Trace, SpanInactiveWithoutSinkOrId) {
  RingBufferSink sink;
  {
    ScopedTraceSink scoped(&sink);
    { Span span(0, "untraced"); }  // zero id => inactive
  }
  { Span span(next_trace_id(), "no.sink"); }  // no sink => inactive
  EXPECT_TRUE(sink.spans().empty());
}

TEST(Trace, RingBufferDropsOldestAndCounts) {
  RingBufferSink sink(3);
  ScopedTraceSink scoped(&sink);
  for (int i = 0; i < 5; ++i) {
    Span span(static_cast<std::uint64_t>(i + 1), "s");
  }
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].trace_id, 3u);  // oldest two dropped
  EXPECT_EQ(spans[2].trace_id, 5u);
  EXPECT_EQ(sink.dropped(), 2);
  sink.clear();
  EXPECT_TRUE(sink.spans().empty());
}

TEST(Trace, JsonlFileSinkWritesOneObjectPerSpan) {
  const std::string path = "test_obs_trace.jsonl";
  {
    JsonlFileSink sink(path);
    ScopedTraceSink scoped(&sink);
    { Span span(77, "client.network"); }
    { Span span(77, "edge.complete"); }
    sink.flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"trace_id\":77"), std::string::npos) << line;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
  in.close();
  std::remove(path.c_str());
}

TEST(Trace, ScopedSinkRestoresPrevious) {
  RingBufferSink outer;
  ScopedTraceSink a(&outer);
  {
    RingBufferSink inner;
    ScopedTraceSink b(&inner);
    EXPECT_EQ(trace_sink(), &inner);
  }
  EXPECT_EQ(trace_sink(), &outer);
}

// ---------------------------------------------------------------------
// Concurrency: the TSan target. Counters must not lose increments,
// histograms must not lose records, span emission must be race-free.

TEST(Concurrency, CountersAndHistogramsLoseNothing) {
  Registry reg;
  Counter& c = reg.counter("race.count");
  Histogram& h = reg.histogram("race.lat_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  const HistogramSnapshot s = h.snapshot("race.lat_us");
  std::int64_t bucket_total = 0;
  for (const std::int64_t n : s.counts) bucket_total += n;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(kThreads * kPerThread - 1));
}

// Regression: snapshots taken while record() is mid-flight must stay
// internally consistent. count_ used to be bumped before min_/max_/sum_,
// so a concurrent snapshot could observe count > 0 with min still at
// +inf -- and Registry::to_json would then emit a bare `inf`, which is
// not valid JSON. record() now publishes the extrema first and
// snapshot() sanitizes any torn read down to the mean.
TEST(Concurrency, SnapshotUnderLoadStaysFiniteAndOrdered) {
  Registry reg;
  Histogram& h = reg.histogram("race.snapshot_us");
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      double v = static_cast<double>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        h.record(v);
        v += 1.0;
        if (v > 1e6) v = static_cast<double>(t);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    const HistogramSnapshot s = h.snapshot("race.snapshot_us");
    if (s.count == 0) continue;
    EXPECT_TRUE(std::isfinite(s.min)) << "iteration " << i;
    EXPECT_TRUE(std::isfinite(s.max)) << "iteration " << i;
    EXPECT_LE(s.min, s.max) << "iteration " << i;
    EXPECT_TRUE(std::isfinite(s.percentile(0.99))) << "iteration " << i;
    // to_json over the live registry must never emit a bare inf/nan.
    const std::string json = reg.snapshot().to_json();
    EXPECT_EQ(json.find("inf"), std::string::npos) << "iteration " << i;
    EXPECT_EQ(json.find("nan"), std::string::npos) << "iteration " << i;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

TEST(Concurrency, RegistrationRacesResolveToOneInstrument) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] { seen[static_cast<std::size_t>(t)] =
                                      &reg.counter("race.register"); });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
}

TEST(Concurrency, SpanEmissionFromManyThreads) {
  RingBufferSink sink(100000);
  ScopedTraceSink scoped(&sink);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Span span(next_trace_id(), "race.span");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(sink.spans().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(sink.dropped(), 0);
}

}  // namespace
}  // namespace lcrs::obs
