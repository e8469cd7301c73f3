// Edge serving throughput: the worker pool with cross-connection batching,
// at a few pool shapes.
//
// Two served workloads, following the paper's partition-point ablation:
//
//   conv1 partition  -- the LCRS default: clients upload conv1 feature
//       maps and the edge completes the whole main rest. Dominated by
//       per-sample convolution compute, which batching cannot shrink, so
//       gains are modest.
//   fc partition     -- a deeper split (browser runs through the last
//       pool): the edge completes only the fully-connected stack. The
//       completion is weight-streaming-bound, so a batch of k requests
//       reads each weight matrix once instead of k times -- this is the
//       regime where cross-connection batching pays.
//
// Three serving configs per workload:
//
//   pool w=1 b=1     -- one worker, no batching: the queue / hand-off
//       cost with nothing amortized.
//   pool w=1 b=16    -- one worker coalescing up to 16 requests and
//       waiting up to 200 us for stragglers: the batching-heavy shape.
//   ServerOptions{}  -- the shipped shape: 2 workers, max_batch 8,
//       max_wait 0 (a batch is cut the moment the queue drains).
//
// For each (workload, serving config, client count) cell, N concurrent
// clients each fire a fixed number of kCompleteRequest frames
// back-to-back at a real loopback EdgeServer and the harness reports
// aggregate requests per second. Correctness is checked inside the
// loop: every reply must be bit-identical to that client's precomputed
// single-request completion on the same network, so a config can only
// "win" by serving the exact same answers faster.
//
// A final interleaved A/B prices the ops plane itself: ServerOptions{}
// with the HTTP ops server live (and a scraper hammering /metrics and
// /tracez throughout) vs with it disabled. The acceptance bar is "within
// noise".
//
// This bench sends raw frames; end-to-end numbers (browser sessions,
// entropy exits, a per-layer split) come from perfbench/.
//
//   ./bench_edge_throughput [requests_per_client] [--json out.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/obs/ops_server.h"
#include "edge/server.h"
#include "tensor/tensor_ops.h"

using namespace lcrs;

namespace {

/// One served workload bound to one network instance: how to build a
/// client payload, the per-sample oracle, and the batched completion the
/// server runs (bit-identical per sample to the oracle).
struct Serving {
  std::function<Tensor(Rng&)> make_input;
  edge::CompletionFn per_sample;
  edge::BatchCompletionFn batched;
};

struct Workload {
  std::vector<edge::Frame> requests;    // one pre-encoded frame per client
  std::vector<Tensor> expected;         // bit-exact probabilities per client
  std::vector<std::int64_t> expected_labels;
};

Workload make_workload(const Serving& serving, int n_clients) {
  Workload w;
  Rng rng(314159);
  for (int c = 0; c < n_clients; ++c) {
    const Tensor payload = serving.make_input(rng);
    w.requests.push_back(edge::Frame{edge::MsgType::kCompleteRequest,
                                     edge::make_complete_request(payload)});
    const edge::CompleteResponse oracle = serving.per_sample(payload);
    w.expected_labels.push_back(oracle.label);
    w.expected.push_back(oracle.probabilities);
  }
  return w;
}

struct CellResult {
  double reqs_per_sec = 0.0;
  std::int64_t mismatches = 0;
  std::int64_t batches = 0;
  std::int64_t served = 0;
};

CellResult run_cell(const Serving& serving, const edge::ServerOptions& opts,
                    int n_clients, int requests_each,
                    bool scrape_during = false) {
  edge::EdgeServer server(0, serving.batched, opts);

  // When asked, keep a live scraper on the ops plane for the whole
  // measurement window so the A/B prices serving *while being watched*,
  // not just the idle cost of an open listener.
  std::atomic<bool> scrape_done{false};
  std::thread scraper;
  if (scrape_during && server.ops_port() != 0) {
    const std::uint16_t ops_port = server.ops_port();
    scraper = std::thread([&scrape_done, ops_port] {
      int i = 0;
      while (!scrape_done.load(std::memory_order_relaxed)) {
        try {
          obs::http_get(ops_port, (i++ % 2) == 0 ? "/metrics" : "/tracez");
        } catch (const std::exception&) {
          // Scrape failures must never abort the measurement.
        }
        // ~40 scrapes/s -- still orders of magnitude hotter than a real
        // Prometheus interval, but not so hot that the scraper itself
        // becomes the workload on small hosts.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }

  const Workload w = make_workload(serving, n_clients);
  std::atomic<std::int64_t> mismatches{0};
  std::vector<std::thread> clients;
  Stopwatch watch;
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t idx = static_cast<std::size_t>(c);
      edge::Socket conn = edge::connect_local(server.port());
      for (int i = 0; i < requests_each; ++i) {
        conn.send_frame(w.requests[idx]);
        auto reply = conn.recv_frame();
        while (reply.has_value() && reply->type == edge::MsgType::kBusy) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              edge::parse_busy_reply(reply->payload)));
          conn.send_frame(w.requests[idx]);
          reply = conn.recv_frame();
        }
        if (!reply.has_value()) {
          ++mismatches;
          return;
        }
        const edge::CompleteResponse resp =
            edge::parse_complete_response(reply->payload);
        if (resp.label != w.expected_labels[idx] ||
            max_abs_diff(resp.probabilities, w.expected[idx]) != 0.0f) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double secs = watch.micros() / 1e6;
  scrape_done.store(true);
  if (scraper.joinable()) scraper.join();

  CellResult r;
  r.reqs_per_sec =
      static_cast<double>(n_clients) * requests_each / (secs > 0 ? secs : 1);
  r.mismatches = mismatches.load();
  r.batches = server.batches_dispatched();
  r.served = server.requests_served();
  server.stop();
  return r;
}

edge::CompleteResponse probs_to_response(Tensor probs) {
  edge::CompleteResponse r;
  r.label = argmax(probs);
  r.probabilities = std::move(probs);
  return r;
}

Serving conv1_serving(core::CompositeNetwork& net) {
  Serving s;
  s.make_input = [&net](Rng& r) {
    return net.shared_stage().forward(Tensor::randn(Shape{1, 1, 28, 28}, r),
                                      false);
  };
  s.per_sample = [&net](const Tensor& shared) {
    return probs_to_response(
        softmax_rows(net.forward_main_from_shared(shared)));
  };
  s.batched = edge::main_branch_batch_completion(net);
  return s;
}

Serving fc_serving(core::CompositeNetwork& net, std::size_t fc_split) {
  Serving s;
  s.make_input = [&net, fc_split](Rng& r) {
    const Tensor shared = net.shared_stage().forward(
        Tensor::randn(Shape{1, 1, 28, 28}, r), false);
    return net.main_rest().forward_prefix(shared, fc_split);
  };
  s.per_sample = [&net, fc_split](const Tensor& acts) {
    return probs_to_response(
        softmax_rows(net.main_rest().forward_suffix(acts, fc_split)));
  };
  s.batched = [&net, fc_split](const Tensor& batch) {
    // Linear and activation layers are row-independent, so the batched
    // suffix is bit-identical per sample to the solo path.
    const Tensor probs =
        softmax_rows(net.main_rest().forward_suffix(batch, fc_split));
    std::vector<edge::CompleteResponse> out;
    out.reserve(static_cast<std::size_t>(batch.dim(0)));
    for (std::int64_t i = 0; i < batch.dim(0); ++i) {
      out.push_back(probs_to_response(probs.slice_outer(i, i + 1)));
    }
    return out;
  };
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const std::string json_path = bench::take_json_flag(argc, argv);
  const int requests_each = argc > 1 ? std::atoi(argv[1]) : 100;
  bench::BenchReport report("edge_throughput");

  // Weights packed for the edge eval kernels, as the serving path does at
  // startup; the per-sample oracle runs on the same packed network.
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 1.0};
  Rng rng(2718);
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  net.prepare_edge_inference();

  // Deeper partition point: the first Linear of the main rest. Clients
  // run the remaining conv/pool prefix themselves and upload the
  // flattened activation; the edge serves only the fc stack.
  std::size_t fc_split = 0;
  while (fc_split < net.main_rest().size() &&
         net.main_rest().layer(fc_split).kind() != "linear") {
    ++fc_split;
  }

  struct Config {
    const char* name;
    edge::ServerOptions opts;
  };
  std::vector<Config> configs;
  {
    Config pool_nobatch{"pool w=1 b=1", {}};
    pool_nobatch.opts.num_workers = 1;
    pool_nobatch.opts.max_batch = 1;
    configs.push_back(pool_nobatch);

    Config pool_batch{"pool w=1 b=16", {}};
    pool_batch.opts.num_workers = 1;
    pool_batch.opts.max_batch = 16;
    pool_batch.opts.max_wait_us = 200.0;
    configs.push_back(pool_batch);

    configs.push_back(Config{"ServerOptions{}", {}});
  }

  struct Case {
    const char* name;
    Serving serving;
  };
  const Case cases[] = {
      {"conv1 partition", conv1_serving(net)},
      {"fc partition", fc_serving(net, fc_split)},
  };

  const std::vector<int> client_counts = {1, 4, 16};
  std::printf("edge serving throughput (LeNet, loopback, %d requests/client; "
              "answers verified bit-exact per config)\n",
              requests_each);

  for (const Case& c : cases) {
    std::printf("\n[%s]\n%-20s", c.name, "config");
    for (int n : client_counts) std::printf("  %9dc", n);
    std::printf("   batches@16c\n");

    for (const Config& config : configs) {
      std::printf("%-20s", config.name);
      std::fflush(stdout);
      std::int64_t batches16 = 0, served16 = 0;
      for (int n : client_counts) {
        const CellResult cell =
            run_cell(c.serving, config.opts, n, requests_each);
        if (cell.mismatches != 0) {
          std::printf("\nFATAL: %lld mismatched replies in %s/%s @%dc\n",
                      static_cast<long long>(cell.mismatches), c.name,
                      config.name, n);
          return 1;
        }
        report.add(std::string(c.name) + "/" + config.name + "/" +
                       std::to_string(n) + "c",
                   "req/s", cell.reqs_per_sec);
        if (n == 16) {
          batches16 = cell.batches;
          served16 = cell.served;
        }
        std::printf("  %8.0f/s", cell.reqs_per_sec);
        std::fflush(stdout);
      }
      if (batches16 > 0) {
        std::printf("   %lld (avg %.1f req/batch)",
                    static_cast<long long>(batches16),
                    static_cast<double>(served16) /
                        static_cast<double>(batches16));
      }
      std::printf("\n");
    }
  }

  // Ops-plane tax: the shipped config on the conv1 workload, ops plane
  // live + actively scraped vs fully disabled. The halves of each pair
  // run back-to-back and the median of per-pair ratios is reported: the
  // host's effective CPU speed drifts over seconds, and the drift hits
  // both halves of a pair roughly equally and cancels in the ratio. The
  // acceptance bar is a median within measurement noise of 1.0x.
  {
    const edge::ServerOptions ops_off;
    edge::ServerOptions ops_on;
    ops_on.ops_port = 0;  // ephemeral side port, flight recorder on

    const Serving& serving = cases[0].serving;
    std::vector<double> ratios;
    for (int rep = 0; rep < 5; ++rep) {
      const CellResult on =
          run_cell(serving, ops_on, 16, requests_each, /*scrape_during=*/true);
      const CellResult off = run_cell(serving, ops_off, 16, requests_each);
      if (on.mismatches != 0 || off.mismatches != 0) {
        std::printf("FATAL: mismatched replies in ops A/B pass\n");
        return 1;
      }
      ratios.push_back(on.reqs_per_sec / off.reqs_per_sec);
    }
    std::sort(ratios.begin(), ratios.end());
    std::printf("\n[ops plane]\n  -> interleaved A/B at 16 clients (5 pairs, "
                "ops on+scraped vs ops off, conv1/ServerOptions{}): median "
                "%.2fx  [min %.2fx, max %.2fx]\n",
                ratios[ratios.size() / 2], ratios.front(), ratios.back());
    report.add("ops_plane/interleaved_on_vs_off/16c", "ratio",
               ratios[ratios.size() / 2], ratios.front(), ratios.back(),
               static_cast<int>(ratios.size()));
  }

  if (!json_path.empty()) {
    if (!report.write(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
