// Process-wide observability metrics: counters, gauges, histograms.
//
// The paper's whole argument is a latency/accuracy trade-off (exit rate
// under tau, browser compute vs. edge round trip), so the runtime must be
// able to answer "where did this request's time go?" without recompiling.
// This registry is the metrics half of that story (spans live in
// common/obs/trace.h): named, hierarchical, thread-safe instruments that
// any layer can update from hot paths and any tool can snapshot as text
// or JSON.
//
// Naming scheme: lowercase dotted hierarchies, `component.subsystem.name`,
// with the unit as a suffix where one applies ("client.edge.roundtrip_us",
// "edge.server.requests"). Every static name lives in
// common/obs/metric_names.h; scripts/lint_invariants.py rejects inline
// string literals at registration sites so names cannot fork.
//
// Concurrency: updates are lock-free atomics (relaxed -- these are
// statistics, not synchronization); registration takes a mutex but
// returns stable references, so hot paths register once and update
// through the reference. The instrument maps are LCRS_GUARDED_BY the
// registry mutex, so an unlocked touch is a compile error under
// -DLCRS_THREAD_SAFETY=ON.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/sync.h"

namespace lcrs::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// A value that can move both ways (queue depth, live connections).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram, with percentile extraction.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;        // ascending bucket upper bounds
  std::vector<std::int64_t> counts;  // bounds.size() + 1 (last = overflow)
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Linear interpolation inside the bucket holding rank p*count;
  /// p in [0, 1]. Returns 0 for an empty histogram.
  double percentile(double p) const;
};

/// Fixed-bucket histogram. Bucket bounds are chosen at registration and
/// never change; recording is an atomic increment plus CAS loops for
/// sum/min/max, so concurrent writers never lose counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }

  HistogramSnapshot snapshot(const std::string& name) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Default bucket bounds for microsecond latencies: 1-2-5 decades from
/// 1 us to 10 s, wide enough for an XNOR op and an edge round trip alike.
const std::vector<double>& default_latency_bounds_us();

struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Point-in-time copy of a whole registry, renderable as text or JSON.
struct Snapshot {
  std::vector<CounterSnapshot> counters;      // sorted by name
  std::vector<GaugeSnapshot> gauges;          // sorted by name
  std::vector<HistogramSnapshot> histograms;  // sorted by name

  const CounterSnapshot* find_counter(const std::string& name) const;
  const GaugeSnapshot* find_gauge(const std::string& name) const;
  const HistogramSnapshot* find_histogram(const std::string& name) const;

  /// Human-readable table, one instrument per line.
  std::string to_text() const;
  /// Machine-readable JSON object keyed by instrument kind.
  std::string to_json() const;

  /// Union of several registries' snapshots, every section sorted by
  /// name. Throws when a name appears in more than one input (in any
  /// section): that would be a duplicate Prometheus series.
  static Snapshot merge(const std::vector<Snapshot>& parts);
};

/// A named collection of instruments. `Registry::global()` is the
/// process-wide registry every free-standing call site records into
/// (exit decisions, profiling, sim, baselines, ops plane, process
/// gauges). Components with per-instance state (BrowserClient,
/// EdgeServer, ModelRegistry) own a Registry and record only into it;
/// a scrape merges the registries it reports (Snapshot::merge).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Finds or creates. Returned references stay valid for the registry's
  /// lifetime (reset_values() zeroes values but keeps instruments).
  Counter& counter(const std::string& name) LCRS_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) LCRS_EXCLUDES(mutex_);
  /// `bounds` applies on first registration (empty = default latency
  /// buckets); later lookups must pass the same bounds or none.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds = {})
      LCRS_EXCLUDES(mutex_);

  Snapshot snapshot() const LCRS_EXCLUDES(mutex_);

  /// Zeroes every instrument without invalidating references. Intended
  /// for tests that assert on global counters.
  void reset_values() LCRS_EXCLUDES(mutex_);

 private:
  // Leaf lock: registration and snapshot never acquire anything else
  // while holding it (instrument reads/updates are lock-free atomics).
  mutable Mutex mutex_{"obs.metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LCRS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      LCRS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LCRS_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------------
// Process-level gauges (metric_names.h "process.*" family): uptime,
// resolved SIMD dispatch level, build type, hardware threads. Registered
// once into Registry::global() (idempotent); uptime is refreshed by
// update_process_gauges(), which scrape paths call just before
// snapshotting so /metrics and /statusz report live values.

void register_process_gauges();
void update_process_gauges();

/// True when this library was compiled with optimization. Keyed on
/// __OPTIMIZE__, not NDEBUG: the release flags keep assertions on, so
/// NDEBUG says nothing about the build type. The one source for every
/// build label (/statusz, bench reports, the process.build_debug gauge).
bool build_optimized();

/// Seconds since the process-local steady-clock anchor (what the uptime
/// gauge reports; also used by /statusz).
double process_uptime_seconds();

// ---------------------------------------------------------------------
// Profiling toggle (per-layer / per-op timing hooks).
//
// Same contract as the numerics sanitizer: disabled it costs one relaxed
// atomic load at each hook site; enabled, Sequential and the webinfer
// engine time every layer/op and feed the registry.

bool profiling_enabled();
void set_profiling_enabled(bool on);

/// RAII toggle for tests and scoped profiling runs.
class ScopedProfiling {
 public:
  explicit ScopedProfiling(bool on = true) : prev_(profiling_enabled()) {
    set_profiling_enabled(on);
  }
  ~ScopedProfiling() { set_profiling_enabled(prev_); }
  ScopedProfiling(const ScopedProfiling&) = delete;
  ScopedProfiling& operator=(const ScopedProfiling&) = delete;

 private:
  bool prev_;
};

}  // namespace lcrs::obs
