// Shared helpers for the table/figure harnesses.
//
// Each bench binary regenerates one table or figure of the paper on the
// synthetic substrate. Training runs use width-scaled networks so a
// single CPU core finishes in seconds-to-minutes; model-size columns are
// always computed from the full-width (width = 1.0) architectures.
//
// Timing: all measurement in bench/ goes through lcrs::Stopwatch, which
// is steady_clock-based -- never std::chrono::system_clock or
// high_resolution_clock, whose wall-clock steps would corrupt latency
// columns mid-run. (Audited 2026-08: no wall-clock timing exists in
// this tree; keep it that way.)
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/lcrs_approach.h"
#include "common/obs/flight_recorder.h"
#include "common/obs/metrics.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/composite.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "models/accounting.h"
#include "sim/cost_model.h"

namespace lcrs::bench {

/// Median-of-reps microsecond timing for microbenchmarks: runs `fn`
/// `reps` times and returns the median elapsed time, which is robust to
/// the scheduler hiccups a mean would absorb.
template <typename Fn>
double median_micros(Fn&& fn, int reps) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    times.push_back(watch.micros());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Width multiplier used when *training* each architecture on one core.
inline double train_width(models::Arch arch) {
  switch (arch) {
    case models::Arch::kLeNet:
      return 1.0;  // small enough to train at full width
    case models::Arch::kAlexNet:
      return 0.25;
    case models::Arch::kResNet18:
      return 0.125;
    case models::Arch::kVgg16:
      return 0.125;
  }
  return 0.25;
}

/// Training-set sizes tuned for single-core wall time.
struct BudgetedRun {
  std::int64_t train_n = 800;
  std::int64_t test_n = 200;
  std::int64_t epochs = 3;
  std::int64_t batch = 32;
};

inline BudgetedRun budget_for(models::Arch arch, std::int64_t num_classes) {
  BudgetedRun b;
  if (arch == models::Arch::kLeNet) {
    b.train_n = 1280;
    b.epochs = 5;
  } else {
    // Deep nets memorize small synthetic sets; they need the extra data
    // (plus the weight decay below) to generalize at all.
    b.train_n = 1152;
    b.epochs = 3;
  }
  if (num_classes >= 100) {
    // 100-way classification: more epochs matter more than more samples
    // here -- the deep mains descend into the uniform solution first and
    // need optimization steps to climb out of it.
    if (arch == models::Arch::kLeNet) {
      b.train_n = std::max(b.train_n, num_classes * 15);
      b.epochs += 1;
    } else {
      b.train_n = 800;
      b.epochs += 3;
    }
  }
  b.test_n = std::max<std::int64_t>(200, num_classes * 2);
  return b;
}

/// Per-architecture trainer settings tuned on the synthetic substrate.
inline core::TrainConfig train_config_for(models::Arch arch,
                                          std::int64_t epochs,
                                          std::int64_t batch) {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = batch;
  tc.verbose = false;
  if (arch != models::Arch::kLeNet) {
    tc.lr_main = 2e-3;
    tc.weight_decay_main = 3e-4;
  }
  return tc;
}

/// A trained composite network plus everything the tables report.
struct TrainedCombo {
  std::string network;
  std::string dataset;
  core::TrainResult result;
  double main_size_mb = 0.0;    // full-width main branch (M_size)
  double binary_size_mb = 0.0;  // browser payload: conv1 + packed branch
  std::unique_ptr<core::CompositeNetwork> net;  // the trained network
  data::TrainTest data;                         // its train/test split
};

/// Builds, jointly trains and measures one (network, dataset) cell of
/// Table I.
inline TrainedCombo run_combo(models::Arch arch, const std::string& dataset,
                              std::uint64_t seed,
                              const core::TrainConfig* override_cfg = nullptr,
                              const BudgetedRun* override_budget = nullptr) {
  const data::SyntheticSpec spec = data::spec_by_name(dataset);
  Rng rng(seed);

  models::ModelConfig cfg{arch, spec.channels, spec.height, spec.width,
                          spec.num_classes, train_width(arch)};
  cfg.dropout = 0.2;  // full 0.5 dropout pins the head at uniform on the
                      // small synthetic training sets
  TrainedCombo combo;
  combo.net = std::make_unique<core::CompositeNetwork>(
      core::CompositeNetwork::build(cfg, rng));

  const BudgetedRun budget = override_budget != nullptr
                                 ? *override_budget
                                 : budget_for(arch, spec.num_classes);
  combo.data =
      data::make_synthetic_pair(spec, budget.train_n, budget.test_n, rng);

  core::TrainConfig tc = train_config_for(arch, budget.epochs, budget.batch);
  if (override_cfg != nullptr) tc = *override_cfg;
  core::JointTrainer trainer(*combo.net, tc);

  combo.network = models::arch_name(arch);
  combo.dataset = dataset;
  combo.result = trainer.train(combo.data.train, combo.data.test, rng);

  // Size columns from the full-width architecture; B_size is the
  // serialized browser blob.
  Rng size_rng(1);
  const models::ModelConfig full{arch, spec.channels, spec.height, spec.width,
                                 spec.num_classes, 1.0};
  core::CompositeNetwork full_net =
      core::CompositeNetwork::build(full, size_rng);
  const std::int64_t main_bytes = full_net.shared_stage().param_bytes() +
                                  full_net.main_rest().param_bytes();
  const baselines::LcrsModel full_lcrs = baselines::lcrs_model_of(
      full_net, Shape{spec.channels, spec.height, spec.width},
      combo.result.exit_stats.exit_fraction);
  combo.main_size_mb = static_cast<double>(main_bytes) / (1024.0 * 1024.0);
  combo.binary_size_mb =
      static_cast<double>(full_lcrs.browser_model_bytes) / (1024.0 * 1024.0);
  return combo;
}

/// The exit fractions the paper's Table I reports for CIFAR10. The
/// analytic tables use them instead of the synthetic substrate's
/// measured ones; bench/table1_training re-measures them.
inline double paper_exit_fraction(models::Arch arch) {
  switch (arch) {
    case models::Arch::kLeNet:
      return 0.84;
    case models::Arch::kAlexNet:
      return 0.79;
    case models::Arch::kResNet18:
      return 0.73;
    case models::Arch::kVgg16:
      return 0.78;
  }
  return 0.8;
}

/// LCRS on the full-width CIFAR10-shaped composite of `arch`, for the
/// analytic benches.
inline baselines::LcrsModel full_width_lcrs_model(models::Arch arch,
                                                  double exit_fraction) {
  Rng rng(9);
  const models::ModelConfig cfg{arch, 3, 32, 32, 10, 1.0};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  return baselines::lcrs_model_of(net, Shape{3, 32, 32}, exit_fraction);
}

/// The full-width monolithic model of `arch` (CIFAR10-shaped input) that
/// the partition baselines price.
inline baselines::ModelUnderTest full_width_model(models::Arch arch,
                                                  std::int64_t classes = 10) {
  Rng rng(3);
  const models::ModelConfig cfg{arch, 3, 32, 32, classes, 1.0};
  auto mono = models::build_monolithic(cfg, rng);
  baselines::ModelUnderTest model;
  model.name = models::arch_name(arch);
  model.layers = models::profile_layers(*mono, Shape{3, 32, 32});
  return model;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// ---------------------------------------------------------------------------
// Machine-readable bench telemetry.
//
// CI archives one JSON file per bench binary so regressions can be
// diffed across runs by tooling instead of by eyeballing stdout. The
// schema is deliberately flat and versioned:
//
//   {"schema": "lcrs-bench-v1",
//    "bench":  "<binary name>",
//    "host":   {"simd_level": ..., "compiler": ..., "build": ...,
//               "hardware_threads": ...},
//    "results": [{"name": ..., "unit": ..., "value": ...,
//                 "ci_lo": ..., "ci_hi": ..., "samples": ...}, ...]}
//
// No timestamps: two runs of the same binary on the same tree should
// produce byte-identical files modulo the measured numbers, so diffs
// show only what actually changed.

/// One measured quantity. For single-shot cells ci_lo == ci_hi == value
/// and samples == 1; for repeated measurements [ci_lo, ci_hi] is the
/// observed min/max envelope across samples.
struct BenchRecord {
  std::string name;
  std::string unit;
  double value = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  int samples = 1;
};

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& name, const std::string& unit, double value,
           double ci_lo, double ci_hi, int samples) {
    records_.push_back(BenchRecord{name, unit, value, ci_lo, ci_hi, samples});
  }
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, value, value, value, 1);
  }

  /// Writes the report; returns false (after perror-style logging) when
  /// the file cannot be written so harnesses can fail the run.
  bool write(const std::string& path) const {
    std::string out = "{\n";
    out += "  \"schema\": \"lcrs-bench-v1\",\n";
    out += "  \"bench\": \"" + obs::json_escape(bench_) + "\",\n";
    out += "  \"host\": {\n";
    out += "    \"simd_level\": \"";
    out += simd::level_name(simd::active_level());
    out += "\",\n";
    out += "    \"compiler\": \"" + obs::json_escape(__VERSION__) + "\",\n";
    out += "    \"build\": \"";
    out += obs::build_optimized() ? "release" : "debug";
    out += "\",\n";
    out += "    \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + "\n  },\n";
    out += "  \"results\": [";
    char buf[256];
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::snprintf(buf, sizeof(buf),
                    "\"value\": %.10g, \"ci_lo\": %.10g, \"ci_hi\": %.10g, "
                    "\"samples\": %d}",
                    r.value, r.ci_lo, r.ci_hi, r.samples);
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"name\": \"" + obs::json_escape(r.name) +
             "\", \"unit\": \"" + obs::json_escape(r.unit) + "\", " + buf;
    }
    out += "\n  ]\n}\n";

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return ok;
  }

  bool empty() const { return records_.empty(); }

 private:
  std::string bench_;
  std::vector<BenchRecord> records_;
};

/// Pulls `--json <path>` out of argv (compacting the remaining args so
/// positional parsing is undisturbed) and returns the path, or "" when
/// the flag is absent.
inline std::string take_json_flag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      const std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path;
    }
  }
  return std::string();
}

}  // namespace lcrs::bench
