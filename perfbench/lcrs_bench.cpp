// End-to-end LCRS benchmark: closed-loop Web-AR sessions through a live
// edge server.
//
// A session is one edge::BrowserClient on its own thread and its own
// connection. It runs the exported webinfer blob (conv1 + binary branch)
// and uploads every entropy miss to an edge::EdgeServer on loopback,
// which completes it with the main branch. A session sends its next
// frame only after the previous answer arrives, as a Web-AR page does.
// Every answer is checked bit for bit against an oracle computed before
// the sessions start.
//
//   lcrs_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   lcrs_bench --self-test
//
// --trace 0 measures with tracing off and reports the end-to-end
// metrics. --trace 1 alternates untraced and traced phases of the same
// sessions and reports the per-layer split. The last line on stdout is
// one JSON object. perfbench/run.py builds this program and relays it;
// perfbench/README.md defines every workload and metric.
#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/obs/flight_recorder.h"
#include "common/obs/metric_names.h"
#include "common/obs/trace.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "core/entropy.h"
#include "core/inference.h"
#include "edge/client.h"
#include "edge/server.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

using namespace lcrs;

namespace {

// ---------------------------------------------------------------------
// Workloads

// Closed-loop sessions. Two, not one per core: each edge request also
// wakes a connection thread and a server worker, and with a session on
// every core those wake-ups queue behind the sessions' own compute, so
// the tail measured the host's scheduler more than the program.
constexpr int kSessions = 2;
constexpr int kBlock = 10;       // frames per exit-pattern block
constexpr int kSetups = 6;       // set-ups per run; setup_s is their median
constexpr double kWarmupS = 1.0; // excluded from every timed window
constexpr double kSegmentS = 2.0; // length of a --trace 0 run's segments
// Network weights are fixed; --seed varies only the input frames.
constexpr std::uint64_t kNetSeed = 2019;
constexpr const char* kSpanClassify = "bench.classify";

struct Workload {
  std::string name;
  models::ModelConfig model;
  std::size_t pool;     // distinct input frames, a multiple of kBlock
  int exits_per_block;  // frames of each kBlock-frame block that exit
};

models::ModelConfig lenet() {
  models::ModelConfig c;
  c.arch = models::Arch::kLeNet;
  c.in_channels = 1;
  c.in_h = c.in_w = 28;
  c.num_classes = 10;
  c.width = 1.0;
  c.dropout = 0.0;
  return c;
}

models::ModelConfig alexnet_half() {
  models::ModelConfig c;
  c.arch = models::Arch::kAlexNet;
  c.in_channels = 3;
  c.in_h = c.in_w = 32;
  c.num_classes = 10;
  c.width = 0.5;
  c.dropout = 0.0;
  return c;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The paper's deployment: 70% of frames exit in the browser.
      {"lenet_mixed", lenet(), 1000, 7},
      // Every frame exits: the edge is idle (the bypass workload).
      {"lenet_browser", lenet(), 1000, kBlock},
      // Every frame goes to a saturated edge.
      {"alexnet_edge", alexnet_half(), 200, 0},
  };
  return all;
}

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw InvalidArgument("unknown workload: " + name);
}

// ---------------------------------------------------------------------
// Statistics

/// Quantile q in [0, 1] of `v` with linear interpolation between the
/// closest ranks (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------
// Frame pool and oracle

struct Expected {
  core::ExitPoint exit_point = core::ExitPoint::kBinaryBranch;
  std::int64_t label = -1;
  Tensor probabilities;  // what classify() must return, bit for bit
  Tensor binary_probs;   // the binary branch's softmax (the gate's input)
};

struct FramePool {
  double tau = 0.0;
  Shape upload_shape;  // the conv1 feature map an edge request carries
  std::vector<Tensor> frames;
  std::vector<Expected> oracle;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

bool matches(const edge::ClientResult& got, const Expected& want) {
  return got.exit_point == want.exit_point && got.label == want.label &&
         same_bits(got.probabilities, want.probabilities);
}

std::vector<std::uint8_t> export_blob(core::CompositeNetwork& net,
                                      const models::ModelConfig& m) {
  return webinfer::serialize(webinfer::export_browser_model(
      net, m.in_channels, m.in_h, m.in_w));
}

/// Draws the workload's frames from `seed`, calibrates tau so exactly
/// exits_per_block / kBlock of them exit in the browser, orders them so
/// every block of kBlock consecutive frames has exactly exits_per_block
/// exits, and computes each frame's expected answer on a separate
/// instance of the network: the browser path through a webinfer Engine,
/// the edge path through core::complete_main_batch on a one-row batch
/// (the server's batched rows must match it bit for bit).
FramePool make_pool(const Workload& wl, std::uint64_t seed,
                    std::size_t pool_size) {
  LCRS_CHECK(pool_size % kBlock == 0 && pool_size > 0,
             "pool size must be a positive multiple of " << kBlock);
  Rng net_rng(kNetSeed);
  core::CompositeNetwork net = core::CompositeNetwork::build(wl.model, net_rng);
  net.prepare_edge_inference();
  const webinfer::Engine engine =
      webinfer::Engine::from_bytes(export_blob(net, wl.model));

  Rng rng(seed);
  std::vector<Tensor> frames, shared, probs;
  std::vector<double> entropy;
  for (std::size_t i = 0; i < pool_size; ++i) {
    frames.push_back(Tensor::randn(
        Shape{1, wl.model.in_channels, wl.model.in_h, wl.model.in_w}, rng));
    shared.push_back(engine.forward_shared(frames.back()));
    probs.push_back(softmax_rows(engine.forward_branch(shared.back())));
    entropy.push_back(
        core::normalized_entropy(probs.back().data(), probs.back().dim(1)));
  }

  const std::size_t n_exit = pool_size / kBlock *
                             static_cast<std::size_t>(wl.exits_per_block);
  FramePool pool;
  pool.upload_shape = shared.front().shape();
  if (n_exit == 0) {
    pool.tau = 0.0;  // normalized entropy is never below 0
  } else if (n_exit == pool_size) {
    pool.tau = 2.0;  // normalized entropy is never above 1
  } else {
    std::vector<double> sorted = entropy;
    std::sort(sorted.begin(), sorted.end());
    LCRS_CHECK(sorted[n_exit - 1] < sorted[n_exit],
               "tied entropies at the calibration point");
    pool.tau = 0.5 * (sorted[n_exit - 1] + sorted[n_exit]);
  }
  const core::ExitPolicy policy{pool.tau};
  std::vector<std::size_t> exits, misses;
  for (std::size_t i = 0; i < pool_size; ++i) {
    (policy.should_exit(entropy[i]) ? exits : misses).push_back(i);
  }
  LCRS_CHECK(exits.size() == n_exit, "calibration missed the exit share");

  std::vector<bool> pattern(kBlock, false);
  std::fill(pattern.begin(), pattern.begin() + wl.exits_per_block, true);
  std::size_t next_exit = 0, next_miss = 0;
  for (std::size_t b = 0; b < pool_size / kBlock; ++b) {
    std::shuffle(pattern.begin(), pattern.end(), rng.engine());
    for (const bool exit : pattern) {
      const std::size_t i = exit ? exits[next_exit++] : misses[next_miss++];
      Expected want;
      want.binary_probs = probs[i];
      if (exit) {
        want.exit_point = core::ExitPoint::kBinaryBranch;
        want.label = argmax(probs[i]);
        want.probabilities = probs[i];
      } else {
        const core::MainBatchCompletion done =
            core::complete_main_batch(net, shared[i]);
        want.exit_point = core::ExitPoint::kMainBranch;
        want.label = done.labels.front();
        want.probabilities = done.probabilities;
      }
      pool.frames.push_back(std::move(frames[i]));
      pool.oracle.push_back(std::move(want));
    }
  }
  return pool;
}

/// Where session `s` starts walking the pool: spread out, block-aligned.
std::size_t session_offset(const FramePool& pool, int s) {
  const std::size_t per = pool.frames.size() / kSessions;
  return per / kBlock * kBlock * static_cast<std::size_t>(s);
}

// ---------------------------------------------------------------------
// Traced completion: the main rest layer by layer

/// Per-layer forward times of the batches completed while tracing.
struct LayerClock {
  Mutex mutex{"perfbench.layer_clock"};
  std::vector<double> layer_us LCRS_GUARDED_BY(mutex);
  std::vector<std::string> layer_kind LCRS_GUARDED_BY(mutex);
  double total_us LCRS_GUARDED_BY(mutex) = 0.0;
  std::int64_t rows LCRS_GUARDED_BY(mutex) = 0;
};

/// While `tracing` is set, completes a batch by calling each main-rest
/// layer's public forward() in turn (what Sequential::forward does, so
/// the answers stay bit-exact) and times every call; otherwise defers
/// to `plain`.
edge::BatchCompletionFn traced_completion(core::CompositeNetwork& net,
                                          edge::BatchCompletionFn plain,
                                          const std::atomic<bool>& tracing,
                                          LayerClock& clock) {
  {
    // Every set-up builds the same network: name its layers once, and
    // keep the times of earlier set-ups' servers.
    MutexLock lock(clock.mutex);
    nn::Sequential& rest = net.main_rest();
    if (clock.layer_kind.empty()) {
      clock.layer_us.assign(rest.size(), 0.0);
      for (std::size_t i = 0; i < rest.size(); ++i) {
        clock.layer_kind.push_back(rest.layer(i).kind());
      }
    }
  }
  return [&net, plain = std::move(plain), &tracing,
          &clock](const Tensor& batch) {
    if (!tracing.load(std::memory_order_relaxed)) return plain(batch);
    Stopwatch total;
    nn::Sequential& rest = net.main_rest();
    std::vector<double> us(rest.size());
    Tensor x = batch;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      Stopwatch watch;
      x = rest.layer(i).forward(x, /*train=*/false);
      us[i] = watch.micros();
    }
    const Tensor probs = softmax_rows(x);
    const std::vector<std::int64_t> labels = argmax_rows(probs);
    std::vector<edge::CompleteResponse> out;
    for (std::int64_t i = 0; i < batch.dim(0); ++i) {
      out.push_back(edge::CompleteResponse{labels[static_cast<std::size_t>(i)],
                                           probs.slice_outer(i, i + 1)});
    }
    const double total_us = total.micros();
    MutexLock lock(clock.mutex);
    for (std::size_t i = 0; i < us.size(); ++i) clock.layer_us[i] += us[i];
    clock.total_us += total_us;
    clock.rows += batch.dim(0);
    return out;
  };
}

// ---------------------------------------------------------------------
// Set-up

struct SetupTimes {
  double build_s = 0, prepare_s = 0, export_s = 0, server_start_s = 0;
  double total_s = 0;
};

/// One serving stack. Members are destroyed in reverse order: clients,
/// then the server (which joins its threads), then the network the
/// server's completion is bound to.
struct Rig {
  std::unique_ptr<core::CompositeNetwork> net;
  std::unique_ptr<edge::EdgeServer> server;
  std::vector<std::unique_ptr<edge::BrowserClient>> clients;
};

using WrapFn = std::function<edge::BatchCompletionFn(
    core::CompositeNetwork&, edge::BatchCompletionFn)>;

/// Builds the network, prepares the edge completion, exports and loads
/// the browser blob, starts the server and connects every session. Each
/// session's first request is part of set-up: it is the cold one, and
/// on a workload with edge frames it is an edge frame, so it opens the
/// session's connection.
Rig set_up(const Workload& wl, const FramePool& pool, const WrapFn& wrap,
           SetupTimes* t) {
  Stopwatch total, step;
  Rig rig;
  Rng rng(kNetSeed);
  rig.net = std::make_unique<core::CompositeNetwork>(
      core::CompositeNetwork::build(wl.model, rng));
  t->build_s = step.seconds();
  step.reset();
  edge::BatchCompletionFn complete =
      edge::main_branch_batch_completion(*rig.net);
  if (wrap) complete = wrap(*rig.net, std::move(complete));
  t->prepare_s = step.seconds();
  step.reset();
  const std::vector<std::uint8_t> blob = export_blob(*rig.net, wl.model);
  std::vector<webinfer::Engine> engines;
  for (int s = 0; s < kSessions; ++s) {
    engines.push_back(webinfer::Engine::from_bytes(blob));
  }
  t->export_s = step.seconds();
  step.reset();
  rig.server = std::make_unique<edge::EdgeServer>(0, std::move(complete));
  t->server_start_s = step.seconds();
  for (int s = 0; s < kSessions; ++s) {
    rig.clients.push_back(std::make_unique<edge::BrowserClient>(
        std::move(engines[static_cast<std::size_t>(s)]),
        core::ExitPolicy{pool.tau}, rig.server->port()));
    std::size_t f = session_offset(pool, s);
    for (std::size_t k = 0; k < pool.frames.size(); ++k) {
      const std::size_t g = (f + k) % pool.frames.size();
      if (pool.oracle[g].exit_point == core::ExitPoint::kMainBranch) {
        f = g;
        break;
      }
    }
    LCRS_CHECK(matches(rig.clients.back()->classify(pool.frames[f]),
                       pool.oracle[f]),
               "first request of session " << s << " disagrees with oracle");
  }
  t->total_s = total.seconds();
  return rig;
}

// ---------------------------------------------------------------------
// Sessions

struct Record {
  std::int64_t start_ns = 0, end_ns = 0;
  std::uint32_t frame = 0;
  bool ok = false;
  bool exited = false;
};

struct Session {
  edge::BrowserClient* client = nullptr;
  std::size_t next_frame = 0;
  std::vector<Record> records;
  std::int64_t entropy_ns = 0;  // timed gate calls in traced requests
  std::int64_t entropy_calls = 0;
};

/// The closed loop: classify, check, record, repeat until `stop`.
/// While `tracing` is set it also emits the benchmark's own span around
/// classify() and times the entropy gate on the frame's binary-branch
/// probabilities.
void run_session(Session& s, const FramePool& pool,
                 const std::atomic<bool>& stop,
                 const std::atomic<bool>& tracing) {
  const core::ExitPolicy policy{pool.tau};
  while (!stop.load(std::memory_order_relaxed)) {
    const std::size_t f = s.next_frame;
    s.next_frame = (f + 1) % pool.frames.size();
    const Expected& want = pool.oracle[f];
    obs::TraceSink* sink =
        tracing.load(std::memory_order_relaxed) ? obs::trace_sink() : nullptr;
    Record rec;
    rec.frame = static_cast<std::uint32_t>(f);
    std::optional<edge::ClientResult> got;
    rec.start_ns = obs::steady_now_ns();
    try {
      got = s.client->classify(pool.frames[f]);
    } catch (const std::exception&) {
      // Counted as a failed request below.
    }
    rec.end_ns = obs::steady_now_ns();
    rec.ok = got.has_value() && matches(*got, want);
    rec.exited =
        got.has_value() && got->exit_point == core::ExitPoint::kBinaryBranch;
    if (sink != nullptr && got.has_value()) {
      sink->emit(obs::SpanRecord{got->trace_id, kSpanClassify, rec.start_ns,
                                 rec.end_ns});
      const std::int64_t t0 = obs::steady_now_ns();
      const double e = core::normalized_entropy(want.binary_probs.data(),
                                                want.binary_probs.dim(1));
      const bool exits = policy.should_exit(e);
      s.entropy_ns += obs::steady_now_ns() - t0;
      ++s.entropy_calls;
      if (exits != (want.exit_point == core::ExitPoint::kBinaryBranch)) {
        rec.ok = false;
      }
    }
    s.records.push_back(rec);
  }
}

// ---------------------------------------------------------------------
// Phases and process counters

struct Usage {
  double cpu_ms = 0.0;
  double ctx_switches = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)) *
                 1e3 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                 1e3;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Phase {
  bool traced = false;
  std::int64_t begin_ns = 0, end_ns = 0;
  Usage use0, use1;
  std::int64_t served0 = 0, served1 = 0, batches0 = 0, batches1 = 0;
  std::vector<double> latency_ms;  // requests that ended in the phase

  double seconds() const {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
  }
};

// ---------------------------------------------------------------------
// Trace analysis

/// Self times of one request, stitched from its spans by trace id.
struct TraceTimes {
  const obs::SpanRecord* classify = nullptr;
  const obs::SpanRecord* conv1 = nullptr;
  const obs::SpanRecord* branch = nullptr;
  const obs::SpanRecord* encode = nullptr;
  const obs::SpanRecord* network = nullptr;
  const obs::SpanRecord* decode = nullptr;
  const obs::SpanRecord* complete = nullptr;
  const obs::SpanRecord* respond = nullptr;
  bool duplicate = false;  // a stage seen twice (a retried request)
};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
double dur_us(const obs::SpanRecord* s) { return us(s->end_ns - s->start_ns); }

struct SplitSums {
  std::int64_t n = 0, n_edge = 0, partial = 0;
  double conv1 = 0, branch = 0, unattributed = 0;
  double encode = 0, decode = 0, wire = 0, queue = 0, complete = 0,
         handoff = 0, respond = 0;
  std::vector<double> queue_us;
};

SplitSums split_spans(const std::vector<obs::SpanRecord>& spans) {
  namespace n = obs::names;
  const std::map<std::string, const obs::SpanRecord* TraceTimes::*> slot = {
      {kSpanClassify, &TraceTimes::classify},
      {n::kSpanClientConv1, &TraceTimes::conv1},
      {n::kSpanClientBinaryBranch, &TraceTimes::branch},
      {n::kSpanClientSerialize, &TraceTimes::encode},
      {n::kSpanClientNetwork, &TraceTimes::network},
      {n::kSpanEdgeDeserialize, &TraceTimes::decode},
      {n::kSpanEdgeComplete, &TraceTimes::complete},
      {n::kSpanEdgeSerialize, &TraceTimes::respond},
  };
  std::unordered_map<std::uint64_t, TraceTimes> traces;
  for (const obs::SpanRecord& s : spans) {
    const auto it = slot.find(s.name);
    if (it == slot.end()) continue;
    TraceTimes& t = traces[s.trace_id];
    const obs::SpanRecord*& field = t.*(it->second);
    if (field != nullptr) t.duplicate = true;
    field = &s;
  }
  SplitSums sum;
  for (const auto& [id, t] : traces) {
    const bool browser = t.classify && t.conv1 && t.branch;
    const bool any_edge =
        t.encode || t.network || t.decode || t.complete || t.respond;
    const bool edge =
        t.encode && t.network && t.decode && t.complete && t.respond;
    if (!browser || t.duplicate || (any_edge && !edge)) {
      ++sum.partial;  // cut by a phase boundary, or retried
      continue;
    }
    ++sum.n;
    double attributed = dur_us(t.conv1) + dur_us(t.branch);
    sum.conv1 += dur_us(t.conv1);
    sum.branch += dur_us(t.branch);
    if (edge) {
      ++sum.n_edge;
      const double server = us(t.respond->end_ns - t.decode->start_ns);
      const double queue = us(t.complete->start_ns - t.decode->end_ns);
      attributed += dur_us(t.encode) + dur_us(t.network);
      sum.encode += dur_us(t.encode);
      sum.decode += dur_us(t.decode);
      sum.wire += dur_us(t.network) - server;
      sum.queue += queue;
      sum.queue_us.push_back(queue);
      sum.complete += dur_us(t.complete);
      sum.handoff += us(t.respond->start_ns - t.complete->end_ns);
      sum.respond += dur_us(t.respond);
    }
    sum.unattributed += dur_us(t.classify) - attributed;
  }
  return sum;
}

// ---------------------------------------------------------------------
// One run

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double warmup_s = kWarmupS;
  bool trace = false;
  int setups = kSetups;
  std::size_t pool_size = 0;          // 0 = the workload's own
  std::vector<std::size_t> corrupt;   // oracle entries to falsify (self-test)
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0, failed = 0, exits = 0;
  std::string why;  // the first reason correct is false
  std::vector<Metric> metrics;
  std::vector<std::int64_t> frame_hits;  // timed requests per pool frame
};

double per(double total, std::int64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

RunResult run(const RunConfig& cfg) {
  const Workload& wl = *cfg.workload;
  FramePool pool =
      make_pool(wl, cfg.seed, cfg.pool_size > 0 ? cfg.pool_size : wl.pool);
  // Declared before the rig so they outlive every thread that uses them.
  obs::RingBufferSink sink(std::size_t{1} << 22);
  std::atomic<bool> tracing{false}, stop{false};
  LayerClock clock;
  WrapFn wrap;
  if (cfg.trace) {
    wrap = [&](core::CompositeNetwork& net, edge::BatchCompletionFn plain) {
      return traced_completion(net, std::move(plain), tracing, clock);
    };
  }

  // Half the set-ups run before the timed window and half after it, so
  // setup_s samples the host at both ends of the run: single-threaded
  // speed drifts by tens of percent over seconds on a shared host.
  std::vector<SetupTimes> setups(static_cast<std::size_t>(cfg.setups));
  const std::size_t setups_before = (setups.size() + 1) / 2;
  std::optional<Rig> rig;
  for (std::size_t i = 0; i < setups_before; ++i) {
    rig.reset();
    rig.emplace(set_up(wl, pool, wrap, &setups[i]));
  }
  // Falsified after set-up, whose first requests must still agree.
  for (const std::size_t f : cfg.corrupt) {
    Expected& e = pool.oracle.at(f);
    e.label = (e.label + 1) % wl.model.num_classes;
  }

  std::vector<Session> sessions(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Session& session = sessions[static_cast<std::size_t>(s)];
    session.client = rig->clients[static_cast<std::size_t>(s)].get();
    session.next_frame = session_offset(pool, s);
    session.records.reserve(1 << 16);
  }
  const auto segments = static_cast<std::size_t>(
      std::max(1.0, std::floor(cfg.seconds / kSegmentS)));
  std::vector<Phase> phases(cfg.trace ? 4 : segments);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phases[i].traced = cfg.trace && i % 2 == 1;
  }
  const auto phase_len = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(cfg.seconds /
                                    static_cast<double>(phases.size())));
  const std::int64_t busy0 = rig->server->rejected_busy();
  {
    std::vector<std::jthread> threads;
    for (Session& s : sessions) {
      threads.emplace_back([&s, &pool, &stop, &tracing] {
        run_session(s, pool, stop, tracing);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(cfg.warmup_s));
    auto until = std::chrono::steady_clock::now();
    for (Phase& p : phases) {
      obs::set_trace_sink(p.traced ? &sink : nullptr);
      tracing.store(p.traced);
      p.begin_ns = obs::steady_now_ns();
      p.use0 = usage_now();
      p.served0 = rig->server->requests_served();
      p.batches0 = rig->server->batches_dispatched();
      until += phase_len;
      std::this_thread::sleep_until(until);
      p.end_ns = obs::steady_now_ns();
      p.use1 = usage_now();
      p.served1 = rig->server->requests_served();
      p.batches1 = rig->server->batches_dispatched();
    }
    tracing.store(false);
    obs::set_trace_sink(nullptr);
    stop.store(true);
  }  // joins the sessions
  const std::int64_t busy = rig->server->rejected_busy() - busy0;
  rig.reset();
  for (std::size_t i = setups_before; i < setups.size(); ++i) {
    set_up(wl, pool, wrap, &setups[i]);
  }

  RunResult res;
  res.frame_hits.assign(pool.frames.size(), 0);
  const std::int64_t window_begin = phases.front().begin_ns;
  const std::int64_t window_end = phases.back().end_ns;
  for (const Session& s : sessions) {
    for (const Record& r : s.records) {
      if (r.end_ns < window_begin) {
        if (!r.ok && res.correct) {
          res.correct = false;
          res.why = "a warm-up request disagreed with the oracle";
        }
        continue;
      }
      if (r.end_ns >= window_end) continue;
      ++res.attempted;
      res.failed += r.ok ? 0 : 1;
      res.exits += r.exited ? 1 : 0;
      ++res.frame_hits[r.frame];
      for (Phase& p : phases) {
        if (r.end_ns >= p.begin_ns && r.end_ns < p.end_ns) {
          p.latency_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                                 1e6);
          break;
        }
      }
    }
  }
  if (res.failed > 0 && res.correct) {
    res.correct = false;
    res.why = std::to_string(res.failed) + " answers disagreed with the oracle";
  }
  // Each session walks the pool in order and every block of kBlock frames
  // holds exactly exits_per_block exits. A session's window is whole
  // blocks plus a cut block at each end, and each cut can stray from the
  // calibrated share by at most e*(kBlock-e)/kBlock frames.
  const double share = static_cast<double>(wl.exits_per_block) / kBlock;
  const double slack = 2.0 * kSessions * share * (kBlock - wl.exits_per_block);
  const double exit_frac = per(static_cast<double>(res.exits), res.attempted);
  if (std::abs(static_cast<double>(res.exits) -
               share * static_cast<double>(res.attempted)) > slack + 1e-9 &&
      res.correct) {
    res.correct = false;
    res.why = "exit fraction " + std::to_string(exit_frac) +
              " is not the calibrated " + std::to_string(share);
  }
  if (res.attempted == 0) {
    res.correct = false;
    res.why = "no request completed in the timed window";
  }

  auto add = [&res](std::string name, double value, std::string unit) {
    res.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(std::move(v));
  };

  if (!cfg.trace) {
    // The tail metric is p90, not p99: on a shared VM, hypervisor steal
    // moves a 20 s run's p99 by up to 2x while p90 stays within its bound.
    // p99 is still printed per segment.
    std::vector<double> rps, p50, p90;
    for (const Phase& p : phases) {
      rps.push_back(static_cast<double>(p.latency_ms.size()) / p.seconds());
      p50.push_back(quantile(p.latency_ms, 0.50));
      p90.push_back(quantile(p.latency_ms, 0.90));
      std::cerr << "segment: " << p.latency_ms.size() << " requests, "
                << rps.back() << " req/s, p50 " << p50.back() << " ms, p90 "
                << p90.back() << " ms, p99 " << quantile(p.latency_ms, 0.99)
                << " ms\n";
    }
    add("throughput_rps", median(rps), "1/s");
    add("latency_p50_ms", median(p50), "ms");
    add("latency_p90_ms", median(p90), "ms");
    add("setup_s", median_of(&SetupTimes::total_s), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  double u_secs = 0, t_secs = 0, u_cpu = 0, u_ctx = 0;
  std::int64_t u_reqs = 0, t_reqs = 0, served = 0, batches = 0;
  for (const Phase& p : phases) {
    const auto n = static_cast<std::int64_t>(p.latency_ms.size());
    if (p.traced) {
      t_secs += p.seconds();
      t_reqs += n;
      served += p.served1 - p.served0;
      batches += p.batches1 - p.batches0;
    } else {
      u_secs += p.seconds();
      u_reqs += n;
      u_cpu += p.use1.cpu_ms - p.use0.cpu_ms;
      u_ctx += p.use1.ctx_switches - p.use0.ctx_switches;
    }
  }
  const SplitSums sp = split_spans(sink.spans());
  std::cerr << "traces: " << sp.n << " stitched, " << sp.partial
            << " cut by a phase boundary or retried\n";
  if (sink.dropped() > 0 && res.correct) {
    res.correct = false;
    res.why = "the trace ring dropped spans";
  }
  double entropy_ns = 0;
  std::int64_t entropy_calls = 0;
  for (const Session& s : sessions) {
    entropy_ns += static_cast<double>(s.entropy_ns);
    entropy_calls += s.entropy_calls;
  }
  const double entropy_us = per(entropy_ns / 1e3, entropy_calls);
  const bool has_edge = wl.exits_per_block < kBlock;

  add("webinfer.conv1_us", per(sp.conv1, sp.n), "us");
  add("webinfer.branch_us", per(sp.branch, sp.n) - entropy_us, "us");
  add("core.entropy_us", entropy_us, "us");
  add("core.exit_frac", exit_frac, "frac");
  add("protocol.encode_us", per(sp.encode, sp.n_edge), "us");
  add("protocol.decode_us", per(sp.decode, sp.n_edge), "us");
  // Uploaded bytes of one edge request: the v2 frame the client sends
  // (nonzero trace id) around the conv1 feature map.
  const edge::Frame upload{
      edge::MsgType::kCompleteRequest,
      edge::make_complete_request(Tensor(pool.upload_shape)), 1};
  add("protocol.request_bytes",
      has_edge ? static_cast<double>(edge::encode_frame(upload).size()) : 0.0,
      "bytes");
  add("tcp.wire_us", per(sp.wire, sp.n_edge), "us");
  add("server.queue_wait_us_mean", per(sp.queue, sp.n_edge), "us");
  add("server.queue_wait_us_p50", quantile(sp.queue_us, 0.50), "us");
  add("server.queue_wait_us_p99", quantile(sp.queue_us, 0.99), "us");
  add("server.batch_size_mean", per(static_cast<double>(served), batches),
      "requests");
  add("server.busy_rejections", static_cast<double>(busy), "count");
  add("server.complete_us", per(sp.complete, sp.n_edge), "us");
  MutexLock clock_lock(clock.mutex);  // uncontended: every server has stopped
  add("server.complete_us_per_req", per(clock.total_us, clock.rows), "us");
  add("server.handoff_us", per(sp.handoff, sp.n_edge), "us");
  add("server.respond_us", per(sp.respond, sp.n_edge), "us");
  for (std::size_t i = 0; i < clock.layer_us.size(); ++i) {
    add("nn.main_rest." + std::to_string(i) + "." + clock.layer_kind[i] +
            "_us",
        per(clock.layer_us[i], clock.rows), "us");
  }
  add("process.cpu_ms_per_req", per(u_cpu, u_reqs), "ms");
  add("process.ctx_switches_per_req", per(u_ctx, u_reqs), "count");
  add("setup.build_s", median_of(&SetupTimes::build_s), "s");
  add("setup.prepare_s", median_of(&SetupTimes::prepare_s), "s");
  add("setup.export_s", median_of(&SetupTimes::export_s), "s");
  add("setup.server_start_s", median_of(&SetupTimes::server_start_s), "s");
  const double u_rps = static_cast<double>(u_reqs) / u_secs;
  const double t_rps = static_cast<double>(t_reqs) / t_secs;
  add("trace.overhead_frac", u_rps > 0 ? 1.0 - t_rps / u_rps : 0.0, "frac");
  add("trace.unattributed_us", per(sp.unattributed, sp.n), "us");
  return res;
}

// ---------------------------------------------------------------------
// Host description

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    return s;
  }
#endif
  return "unknown";
}

/// The CPUs this process may run on, as ranges ("0-3").
std::string affinity(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(c);
    if (last > c) out += "-" + std::to_string(last);
    *count += last - c + 1;
    c = last;
  }
  return out;
}

std::string host_json() {
  int cpus = 0;
  const std::string mask = affinity(&cpus);
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << obs::json_escape(cpu_model())
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"affinity\": \"" << mask << "\", \"affinity_cpus\": " << cpus
     << ", \"simd_level\": \"" << simd::level_name(simd::active_level())
     << "\", \"compiler\": \""
#ifdef __clang__
     << "clang "
#else
     << "gcc "
#endif
     << obs::json_escape(__VERSION__)
     << "\", \"build\": \""
     // The release flags carry no -DNDEBUG, so NDEBUG says nothing about
     // optimization; __OPTIMIZE__ does.
#ifdef __OPTIMIZE__
     << "optimized"
#else
     << "unoptimized"
#endif
     << "\", \"asserts\": "
#ifdef NDEBUG
     << "false"
#else
     << "true"
#endif
     << ", \"sessions\": " << kSessions << "}";
  return os.str();
}

std::string result_json(const RunResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}";
  if (!r.correct) os << ", \"why\": \"" << obs::json_escape(r.why) << "\"";
  os << "}";
  return os.str();
}

// ---------------------------------------------------------------------
// Self-test

int g_checks_failed = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_checks_failed;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

RunConfig short_run(std::uint64_t seed) {
  RunConfig cfg;
  cfg.workload = &workload_by_name("lenet_mixed");
  cfg.seed = seed;
  cfg.seconds = 0.5;
  cfg.warmup_s = 0.1;
  cfg.setups = 1;
  cfg.pool_size = 2 * kBlock;  // small, so every frame recurs in the window
  return cfg;
}

int self_test() {
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  expect(near(quantile(hundred, 0.0), 1.0), "quantile(1..100, 0) == 1");
  expect(near(quantile(hundred, 0.5), 50.5), "quantile(1..100, 0.5) == 50.5");
  expect(near(quantile(hundred, 0.99), 99.01),
         "quantile(1..100, 0.99) == 99.01");
  expect(near(quantile(hundred, 1.0), 100.0), "quantile(1..100, 1) == 100");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median({3, 1, 2}) == 2");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5),
         "median({4, 1, 3, 2}) == 2.5");
  expect(quantile({}, 0.5) == 0.0, "quantile of no samples is 0");

  const Workload& mixed = workload_by_name("lenet_mixed");
  const FramePool a = make_pool(mixed, 1, mixed.pool);
  const FramePool b = make_pool(mixed, 2, mixed.pool);
  expect(!same_bits(a.frames.front(), b.frames.front()),
         "a new seed draws new frames");
  for (const FramePool* p : {&a, &b}) {
    std::int64_t exits = 0;
    bool every_block = true;
    for (std::size_t blk = 0; blk < p->oracle.size() / kBlock; ++blk) {
      int in_block = 0;
      for (int j = 0; j < kBlock; ++j) {
        in_block += p->oracle[blk * kBlock + static_cast<std::size_t>(j)]
                            .exit_point == core::ExitPoint::kBinaryBranch
                        ? 1
                        : 0;
      }
      exits += in_block;
      every_block = every_block && in_block == mixed.exits_per_block;
    }
    expect(exits * kBlock ==
               static_cast<std::int64_t>(p->oracle.size()) *
                   mixed.exits_per_block,
           "the pool's calibrated exit share is exactly 0.7");
    expect(every_block, "every block of 10 frames holds exactly 7 exits");
  }

  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}}) {
    const RunResult r = run(short_run(seed));
    expect(r.correct && r.failed == 0 && r.attempted > 0,
           "seed " + std::to_string(seed) + ": " +
               std::to_string(r.attempted) + " answers, all correct" +
               (r.correct ? "" : " (" + r.why + ")"));
    const double frac =
        static_cast<double>(r.exits) /
        static_cast<double>(std::max<std::int64_t>(r.attempted, 1));
    expect(std::abs(frac - 0.7) < 0.01,
           "seed " + std::to_string(seed) + ": exit fraction " +
               std::to_string(frac) + " is the calibrated 0.7");
  }

  // Falsify one oracle entry of each kind: every timed request on those
  // frames, and no other, must count as failed.
  RunConfig bad = short_run(1);
  const FramePool ref = make_pool(mixed, 1, bad.pool_size);
  for (std::size_t f = 0; f < ref.oracle.size(); ++f) {
    const bool exit =
        ref.oracle[f].exit_point == core::ExitPoint::kBinaryBranch;
    const bool have_kind = std::any_of(
        bad.corrupt.begin(), bad.corrupt.end(), [&](std::size_t g) {
          return (ref.oracle[g].exit_point ==
                  core::ExitPoint::kBinaryBranch) == exit;
        });
    if (!have_kind) bad.corrupt.push_back(f);
  }
  const RunResult r = run(bad);
  std::int64_t hits = 0;
  for (const std::size_t f : bad.corrupt) hits += r.frame_hits[f];
  expect(hits > 0 && r.failed == hits && !r.correct,
         "a wrong oracle entry shows up as " + std::to_string(r.failed) +
             " failed of " + std::to_string(r.attempted) + " (expected " +
             std::to_string(hits) + ")");

  std::cout << (g_checks_failed == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return g_checks_failed == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: lcrs_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       lcrs_bench --self-test\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "--self-test") return self_test();
    RunConfig cfg;
    std::string workload;
    for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
      const std::string& key = args[i];
      const std::string& value = args[i + 1];
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (key == "--trace") {
        cfg.trace = value == "1";
      } else {
        return usage();
      }
    }
    if (args.size() % 2 != 0 || workload.empty() || cfg.seconds <= 0.0) {
      return usage();
    }
    cfg.workload = &workload_by_name(workload);
    const RunResult r = run(cfg);
    std::cout << "host " << host_json() << "\n" << result_json(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lcrs_bench: " << e.what() << "\n";
    return 1;
  }
}
