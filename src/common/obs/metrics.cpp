#include "common/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "common/obs/metric_names.h"
#include "common/obs/trace.h"
#include "common/simd.h"

namespace lcrs::obs {

namespace {

/// Names are lowercase dotted hierarchies: segments of [a-z0-9_], joined
/// by single dots. Rejecting everything else keeps snapshots greppable
/// and the JSON export escape-free.
void check_name(const std::string& name) {
  LCRS_CHECK(!name.empty(), "metric name must not be empty");
  LCRS_CHECK(name.front() != '.' && name.back() != '.',
             "metric name has leading/trailing dot: " << name);
  bool prev_dot = false;
  for (const char c : name) {
    if (c == '.') {
      LCRS_CHECK(!prev_dot, "metric name has empty segment: " << name);
      prev_dot = true;
      continue;
    }
    prev_dot = false;
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    LCRS_CHECK(ok, "metric name has invalid character '"
                       << c << "': " << name
                       << " (use lowercase dotted segments)");
  }
}

void check_bounds(const std::vector<double>& bounds) {
  LCRS_CHECK(!bounds.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    LCRS_CHECK(bounds[i] < bounds[i + 1],
               "histogram bounds must be strictly ascending");
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  check_bounds(bounds_);
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  // min/max/sum before the count: a snapshot that observes count > 0 has
  // at least one recorder far enough along that min/max are (usually)
  // real values, not the +-inf sentinels. snapshot() still sanitizes the
  // residual window -- relaxed atomics promise no cross-field ordering.
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot(const std::string& name) const {
  HistogramSnapshot s;
  s.name = name;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    // Snapshot-under-load race: a recorder may have bumped count before
    // its min/max landed, leaving the +-inf init values (or min > max)
    // visible. Fall back to the observed mean so percentile() stays
    // monotone and to_json() never emits bare `inf` (invalid JSON).
    if (!std::isfinite(s.min) || !std::isfinite(s.max) || s.min > s.max) {
      s.min = s.max = s.mean();
    }
  }
  return s;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double HistogramSnapshot::percentile(double p) const {
  LCRS_CHECK(p >= 0.0 && p <= 1.0, "percentile p must be in [0, 1]");
  if (count == 0) return 0.0;
  const double target = p * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c <= 0.0) continue;
    if (cum + c >= target) {
      // Bucket i spans (bounds[i-1], bounds[i]]; clamp the ends to the
      // observed min/max so sparse histograms do not over-spread.
      double lo = i == 0 ? min : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi < lo) hi = lo;
      const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cum += c;
  }
  return max;
}

const std::vector<double>& default_latency_bounds_us() {
  static const std::vector<double> bounds = {
      1.0,   2.0,   5.0,   10.0,  20.0,  50.0,  1e2, 2e2, 5e2, 1e3, 2e3,
      5e3,   1e4,   2e4,   5e4,   1e5,   2e5,   5e5, 1e6, 2e6, 5e6, 1e7};
  return bounds;
}

// ---------------------------------------------------------------------
// Snapshot

const CounterSnapshot* Snapshot::find_counter(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* Snapshot::find_gauge(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* Snapshot::find_histogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_text() const {
  std::ostringstream os;
  os << std::setprecision(6);
  for (const auto& c : counters) {
    os << "counter " << c.name << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    os << "gauge   " << g.name << " " << g.value << "\n";
  }
  for (const auto& h : histograms) {
    os << "hist    " << h.name << " count=" << h.count
       << " mean=" << h.mean() << " p50=" << h.percentile(0.5)
       << " p90=" << h.percentile(0.9) << " p99=" << h.percentile(0.99)
       << " min=" << h.min << " max=" << h.max << "\n";
  }
  return os.str();
}

std::string Snapshot::to_json() const {
  // Names are lint-restricted to [a-z0-9_.] so no JSON escaping is needed.
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\"" << counters[i].name
       << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\"" << gauges[i].name
       << "\":" << fmt_double(gauges[i].value);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i ? "," : "") << "\"" << h.name << "\":{\"count\":" << h.count
       << ",\"sum\":" << fmt_double(h.sum)
       << ",\"mean\":" << fmt_double(h.mean())
       << ",\"p50\":" << fmt_double(h.percentile(0.5))
       << ",\"p90\":" << fmt_double(h.percentile(0.9))
       << ",\"p99\":" << fmt_double(h.percentile(0.99))
       << ",\"min\":" << fmt_double(h.min)
       << ",\"max\":" << fmt_double(h.max) << "}";
  }
  os << "}}";
  return os.str();
}

Snapshot Snapshot::merge(const std::vector<Snapshot>& parts) {
  Snapshot out;
  std::set<std::string> seen;
  const auto claim = [&seen](const std::string& name) {
    LCRS_CHECK(seen.insert(name).second,
               "metric '" << name << "' appears in two merged registries");
  };
  for (const Snapshot& p : parts) {
    for (const auto& c : p.counters) claim(c.name);
    for (const auto& g : p.gauges) claim(g.name);
    for (const auto& h : p.histograms) claim(h.name);
    out.counters.insert(out.counters.end(), p.counters.begin(),
                        p.counters.end());
    out.gauges.insert(out.gauges.end(), p.gauges.begin(), p.gauges.end());
    out.histograms.insert(out.histograms.end(), p.histograms.begin(),
                          p.histograms.end());
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

// ---------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  check_name(name);
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    LCRS_CHECK(gauges_.find(name) == gauges_.end() &&
                   histograms_.find(name) == histograms_.end(),
               "metric '" << name << "' already registered as another kind");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  check_name(name);
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    LCRS_CHECK(counters_.find(name) == counters_.end() &&
                   histograms_.find(name) == histograms_.end(),
               "metric '" << name << "' already registered as another kind");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& bounds) {
  check_name(name);
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    LCRS_CHECK(counters_.find(name) == counters_.end() &&
                   gauges_.find(name) == gauges_.end(),
               "metric '" << name << "' already registered as another kind");
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(
                                bounds.empty() ? default_latency_bounds_us()
                                               : bounds))
             .first;
  } else if (!bounds.empty()) {
    LCRS_CHECK(it->second->bounds() == bounds,
               "histogram '" << name
                             << "' re-registered with different bounds");
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  MutexLock lock(mutex_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back(CounterSnapshot{name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back(GaugeSnapshot{name, g->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back(h->snapshot(name));
  }
  return s;  // std::map iteration order keeps every section sorted
}

void Registry::reset_values() {
  MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

// ---------------------------------------------------------------------
// Process-level gauges

double process_uptime_seconds() {
  // steady_now_ns() is anchored at its first call, which happens during
  // startup for any process that traces or registers these gauges.
  return static_cast<double>(steady_now_ns()) / 1e9;
}

bool build_optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void register_process_gauges() {
  Registry& g = Registry::global();
  g.gauge(names::kProcessSimdLevel)
      .set(static_cast<double>(static_cast<int>(simd::active_level())));
  g.gauge(names::kProcessBuildDebug).set(build_optimized() ? 0.0 : 1.0);
  g.gauge(names::kProcessHardwareThreads)
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  g.gauge(names::kProcessUptimeSeconds).set(process_uptime_seconds());
}

void update_process_gauges() {
  // Scrape-time refresh: uptime advances; the SIMD level is re-read so a
  // ScopedForcedLevel (tests/benches) shows up in the exposition too.
  Registry& g = Registry::global();
  g.gauge(names::kProcessUptimeSeconds).set(process_uptime_seconds());
  g.gauge(names::kProcessSimdLevel)
      .set(static_cast<double>(static_cast<int>(simd::active_level())));
}

// ---------------------------------------------------------------------
// Profiling toggle

namespace {
#ifdef LCRS_PROFILE_DEFAULT_ON
std::atomic<bool> g_profiling{true};
#else
std::atomic<bool> g_profiling{false};
#endif
}  // namespace

bool profiling_enabled() {
  return g_profiling.load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) {
  g_profiling.store(on, std::memory_order_relaxed);
}

}  // namespace lcrs::obs
