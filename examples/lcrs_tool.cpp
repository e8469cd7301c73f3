// lcrs_tool — command-line front end for the whole LCRS workflow.
//
//   lcrs_tool train <arch> <dataset> <out.ckpt> [epochs] [train_n]
//       Joint-train a composite network on a synthetic dataset, screen
//       tau, and write a self-contained checkpoint.
//
//   lcrs_tool export <in.ckpt> <out.blob>
//       Convert a checkpoint's browser part (conv1 + binary branch) into
//       the webinfer blob a browser would download.
//
//   lcrs_tool eval <in.ckpt> [n_samples]
//       Report branch accuracies, exit statistics and a per-class
//       confusion summary on a fresh test set.
//
//   lcrs_tool bundle <in.ckpt> <out.bundle> <model_id> <version> [name]
//       Wrap a checkpoint into a versioned model bundle the serve
//       command (and its hot-swap `load` stdin command) can install.
//
//   lcrs_tool serve <in.ckpt|in.bundle> <port> [ops_port]
//       Host the main branch on a TCP edge server until EOF on stdin.
//       A bundle is installed under its own model id and aliased to the
//       default id 0. While serving, stdin accepts registry commands:
//       `load <bundle>` hot-swaps a model in, `evict <id>` removes one,
//       `list` prints the registry. With ops_port (0 = ephemeral) the
//       ops plane serves /metrics, /healthz, /readyz, /statusz, /tracez
//       on a side port.
//
//   lcrs_tool models <ops_port>
//       Print the live server's model registry (id, version, name) and
//       drain state, scraped from /statusz.
//
//   lcrs_tool scrape <ops_port> [path]
//       One HTTP GET against a live ops port (default path /metrics);
//       prints the body, exits nonzero unless the status is 200.
//
//   lcrs_tool watch <ops_port> [count] [interval_ms]
//       Poll /metrics and print one compact serving line per interval
//       (requests, req/s, queue depth, connections, rejected busy).
//
//   lcrs_tool classify <in.ckpt> [n_samples]
//       Run Algorithm 2 end-to-end against an in-process edge server
//       through the exported blob, printing one line per recognition.
//
//   lcrs_tool metrics <in.ckpt> [n_samples] [text|json] [trace.jsonl]
//       Run collaborative classifications with profiling on, then dump
//       the process, server and client registries merged into one
//       snapshot (and, optionally, every trace span as JSONL) -- the
//       observability smoke test.
//
// Architectures: LeNet | AlexNet | ResNet18 | VGG16.
// Datasets:      MNIST | FashionMNIST | CIFAR10 | CIFAR100.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include <thread>

#include "common/logging.h"
#include "common/obs/metrics.h"
#include "common/obs/ops_server.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/entropy.h"
#include "core/joint_trainer.h"
#include "data/synthetic.h"
#include "edge/client.h"
#include "edge/model_registry.h"
#include "edge/server.h"
#include "nn/metrics.h"
#include "tensor/tensor_ops.h"
#include "webinfer/export.h"

using namespace lcrs;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lcrs_tool train <arch> <dataset> <out.ckpt> [epochs] "
               "[train_n]\n"
               "  lcrs_tool export <in.ckpt> <out.blob>\n"
               "  lcrs_tool eval <in.ckpt> [n_samples]\n"
               "  lcrs_tool bundle <in.ckpt> <out.bundle> <model_id> "
               "<version> [name]\n"
               "  lcrs_tool serve <in.ckpt|in.bundle> <port> [ops_port]\n"
               "  lcrs_tool classify <in.ckpt> [n_samples]\n"
               "  lcrs_tool metrics <in.ckpt> [n_samples] [text|json] "
               "[trace.jsonl]\n"
               "  lcrs_tool models <ops_port>\n"
               "  lcrs_tool scrape <ops_port> [path]\n"
               "  lcrs_tool watch <ops_port> [count] [interval_ms]\n");
  return 2;
}

data::Dataset fresh_test_set(const core::Checkpoint& ckpt, std::int64_t n,
                             std::uint64_t seed) {
  // Rebuild the dataset family from the stored geometry.
  for (const char* name : {"MNIST", "FashionMNIST", "CIFAR10", "CIFAR100"}) {
    const data::SyntheticSpec spec = data::spec_by_name(name);
    if (spec.channels == ckpt.config.in_channels &&
        spec.height == ckpt.config.in_h &&
        spec.num_classes == ckpt.config.num_classes) {
      Rng rng(seed);
      return data::make_synthetic(spec, n, rng);
    }
  }
  throw InvalidArgument("checkpoint geometry matches no known dataset");
}

int cmd_train(int argc, char** argv) {
  if (argc < 5) return usage();
  const models::Arch arch = models::arch_by_name(argv[2]);
  const data::SyntheticSpec spec = data::spec_by_name(argv[3]);
  const std::string out_path = argv[4];
  const std::int64_t epochs = argc > 5 ? std::atoll(argv[5]) : 3;
  const std::int64_t train_n = argc > 6 ? std::atoll(argv[6]) : 1000;

  Rng rng(42);
  models::ModelConfig cfg{arch, spec.channels, spec.height, spec.width,
                          spec.num_classes,
                          arch == models::Arch::kLeNet ? 1.0 : 0.25};
  cfg.dropout = 0.2;
  const models::BinaryBranchConfig bc = models::default_branch(arch);
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, bc, rng);

  const data::TrainTest tt = data::make_synthetic_pair(
      spec, train_n, std::max<std::int64_t>(200, spec.num_classes * 2), rng);
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  if (arch != models::Arch::kLeNet) {
    tc.lr_main = 2e-3;
    tc.weight_decay_main = 3e-4;
  }
  core::JointTrainer trainer(net, tc);
  const core::TrainResult result = trainer.train(tt.train, tt.test, rng);

  core::Checkpoint ckpt{cfg, bc, result.exit_stats.tau};
  core::save_composite_file(net, ckpt, out_path);
  std::printf("saved %s: M_Acc %.2f%% B_Acc %.2f%% tau %.4f exit %.0f%%\n",
              out_path.c_str(), 100.0 * result.main_accuracy,
              100.0 * result.binary_accuracy, result.exit_stats.tau,
              100.0 * result.exit_stats.exit_fraction);
  return 0;
}

int cmd_export(int argc, char** argv) {
  if (argc < 4) return usage();
  core::LoadedComposite loaded = core::load_composite_file(argv[2]);
  const webinfer::WebModel model = webinfer::export_browser_model(
      loaded.net, loaded.ckpt.config.in_channels, loaded.ckpt.config.in_h,
      loaded.ckpt.config.in_w);
  const auto blob = webinfer::serialize(model);
  write_file(argv[3], blob);
  std::printf("wrote %s: %.1f KB, %zu ops (%lld shared), tau %.4f\n",
              argv[3], static_cast<double>(blob.size()) / 1024.0,
              model.ops.size(),
              static_cast<long long>(model.shared_op_count),
              loaded.ckpt.tau);
  return 0;
}

int cmd_eval(int argc, char** argv) {
  if (argc < 3) return usage();
  core::LoadedComposite loaded = core::load_composite_file(argv[2]);
  const std::int64_t n = argc > 3 ? std::atoll(argv[3]) : 400;
  const data::Dataset test = fresh_test_set(loaded.ckpt, n, 777);

  nn::ConfusionMatrix main_cm(test.num_classes);
  nn::ConfusionMatrix bin_cm(test.num_classes);
  std::int64_t exits = 0;
  const core::ExitPolicy policy{loaded.ckpt.tau};
  for (std::int64_t begin = 0; begin < test.size(); begin += 64) {
    const std::int64_t count = std::min<std::int64_t>(64, test.size() - begin);
    const Tensor x = test.images.slice_outer(begin, begin + count);
    const auto labels = test.label_slice(begin, count);
    const core::CompositeOutput out = loaded.net.forward(x, false);
    main_cm.add_batch(out.main_logits, labels);
    bin_cm.add_batch(out.binary_logits, labels);
    const Tensor probs = softmax_rows(out.binary_logits);
    for (std::int64_t i = 0; i < count; ++i) {
      if (policy.should_exit(core::normalized_entropy(
              probs.data() + i * probs.dim(1), probs.dim(1)))) {
        ++exits;
      }
    }
  }
  std::printf("over %lld fresh samples:\n", static_cast<long long>(n));
  std::printf("  main:   acc %.2f%%  balanced %.2f%%\n",
              100.0 * main_cm.accuracy(),
              100.0 * main_cm.balanced_accuracy());
  std::printf("  binary: acc %.2f%%  balanced %.2f%%\n",
              100.0 * bin_cm.accuracy(),
              100.0 * bin_cm.balanced_accuracy());
  std::printf("  exit fraction at tau %.4f: %.0f%%\n", loaded.ckpt.tau,
              100.0 * static_cast<double>(exits) /
                  static_cast<double>(test.size()));
  return 0;
}

edge::CompletionFn completion_for(core::CompositeNetwork& net) {
  return [&net](const Tensor& shared) {
    const Tensor logits = net.forward_main_from_shared(shared);
    edge::CompleteResponse r;
    r.probabilities = softmax_rows(logits);
    r.label = argmax(r.probabilities);
    return r;
  };
}

int cmd_bundle(int argc, char** argv) {
  if (argc < 6) return usage();
  core::LoadedComposite loaded = core::load_composite_file(argv[2]);
  core::BundleInfo info;
  info.model_id = static_cast<std::uint32_t>(std::atoll(argv[4]));
  info.version = static_cast<std::uint32_t>(std::atoll(argv[5]));
  info.name = argc > 6 ? argv[6]
                       : models::arch_name(loaded.ckpt.config.arch);
  core::save_bundle_file(loaded.net, loaded.ckpt, info, argv[3]);
  std::printf("wrote %s: model %u v%u \"%s\" (tau %.4f)\n", argv[3],
              info.model_id, info.version, info.name.c_str(),
              loaded.ckpt.tau);
  return 0;
}

/// Installs a bundle into `registry` under its own model id. With
/// `alias_default`, the same prepared snapshot (network, completion) is
/// also installed as model 0, so clients that name no model are served
/// by it.
void install_bundle(edge::ModelRegistry& registry,
                    core::LoadedBundle bundle, bool alias_default) {
  const core::BundleInfo info = bundle.info;
  std::shared_ptr<const edge::ServableModel> m =
      edge::ServableModel::from_loaded(info, std::move(bundle.loaded));
  registry.install(m);
  std::printf("installed model %u v%u \"%s\"\n", info.model_id,
              info.version, info.name.c_str());
  if (alias_default && info.model_id != 0) {
    auto alias = std::make_shared<edge::ServableModel>();
    alias->model_id = 0;
    alias->version = info.version;
    alias->name = info.name;
    alias->complete = m->complete;
    alias->net = m->net;
    registry.install(std::move(alias));
  }
}

int cmd_serve(int argc, char** argv) {
  if (argc < 4) return usage();
  const int port = std::atoi(argv[3]);
  edge::ServerOptions opts;
  if (argc > 4) opts.ops_port = std::atoi(argv[4]);

  // Checkpoints keep the exact single-model serving path; bundles go
  // through a registry so more models can be hot-swapped in over stdin.
  std::optional<core::LoadedComposite> loaded;  // completion_for keepalive
  std::unique_ptr<edge::EdgeServer> server;
  const std::vector<std::uint8_t> bytes = read_file(argv[2]);
  if (core::looks_like_bundle(bytes)) {
    auto registry = std::make_shared<edge::ModelRegistry>();
    install_bundle(*registry, core::load_bundle(bytes),
                   /*alias_default=*/true);
    server = std::make_unique<edge::EdgeServer>(
        static_cast<std::uint16_t>(port), std::move(registry), opts);
  } else {
    loaded = core::load_composite(bytes);
    server = std::make_unique<edge::EdgeServer>(
        static_cast<std::uint16_t>(port), completion_for(loaded->net),
        opts);
  }
  std::printf("serving main branch on 127.0.0.1:%u -- press Ctrl-D to "
              "stop\n",
              server->port());
  if (server->ops_port() != 0) {
    std::printf("ops plane on 127.0.0.1:%u (/metrics /healthz /readyz "
                "/statusz /tracez)\n",
                server->ops_port());
  }
  std::fflush(stdout);  // scripts poll the port lines before stdin closes
  // Registry command loop until stdin closes; unknown lines print help,
  // so plain `... < /dev/null` or a held-open pipe still just serves.
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream iss(line);
    std::string cmd, arg;
    if (!(iss >> cmd)) continue;
    try {
      if (cmd == "load" && (iss >> arg)) {
        install_bundle(*server->registry(), core::load_bundle_file(arg),
                       /*alias_default=*/false);
      } else if (cmd == "evict" && (iss >> arg)) {
        const auto id = static_cast<std::uint32_t>(std::atoll(arg.c_str()));
        if (server->registry()->evict(id)) {
          std::printf("evicted model %u\n", id);
        } else {
          std::printf("no model %u registered\n", id);
        }
      } else if (cmd == "list") {
        for (const auto& m : server->registry()->list()) {
          std::printf("model %u v%u \"%s\"\n", m->model_id, m->version,
                      m->name.c_str());
        }
        std::printf("live incl. draining: %lld\n",
                    static_cast<long long>(
                        server->registry()->live_models()));
      } else {
        std::printf("commands: load <bundle> | evict <id> | list "
                    "(EOF stops)\n");
      }
    } catch (const Error& e) {
      std::printf("error: %s\n", e.what());
    }
    std::fflush(stdout);
  }
  const obs::Snapshot snap = server->metrics().snapshot();
  const std::int64_t served = server->requests_served();
  std::printf("served %lld requests over %lld connections "
              "(%.2f ms mean completion, %lld connection errors)\n",
              static_cast<long long>(served),
              static_cast<long long>(server->connections_accepted()),
              snap.find_histogram(obs::names::kServerCompletionUs)->sum /
                  1e3 / static_cast<double>(std::max<std::int64_t>(served, 1)),
              static_cast<long long>(
                  snap.find_counter(obs::names::kServerConnectionErrors)
                      ->value));
  return 0;
}

int cmd_classify(int argc, char** argv) {
  if (argc < 3) return usage();
  core::LoadedComposite loaded = core::load_composite_file(argv[2]);
  const std::int64_t n = argc > 3 ? std::atoll(argv[3]) : 12;
  const data::Dataset test = fresh_test_set(loaded.ckpt, n, 991);

  edge::EdgeServer server(0, completion_for(loaded.net));
  const webinfer::WebModel model = webinfer::export_browser_model(
      loaded.net, loaded.ckpt.config.in_channels, loaded.ckpt.config.in_h,
      loaded.ckpt.config.in_w);
  edge::BrowserClient client(webinfer::Engine(model),
                             core::ExitPolicy{loaded.ckpt.tau},
                             server.port());
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < test.size(); ++i) {
    const edge::ClientResult r = client.classify(test.image(i));
    if (r.label == test.labels[static_cast<std::size_t>(i)]) ++correct;
    std::printf("sample %3lld: predicted %2lld truth %2lld entropy %.3f "
                "%s\n",
                static_cast<long long>(i), static_cast<long long>(r.label),
                static_cast<long long>(
                    test.labels[static_cast<std::size_t>(i)]),
                r.entropy, core::to_string(r.exit_point));
  }
  std::printf("accuracy %.0f%%, exit fraction %.0f%%, fallbacks %lld, "
              "retries %lld\n",
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(test.size()),
              100.0 * client.exit_fraction(),
              static_cast<long long>(client.fallbacks()),
              static_cast<long long>(
                  client.metrics()
                      .snapshot()
                      .find_counter(obs::names::kClientRetries)
                      ->value));
  return 0;
}

int cmd_metrics(int argc, char** argv) {
  if (argc < 3) return usage();
  core::LoadedComposite loaded = core::load_composite_file(argv[2]);
  const std::int64_t n = argc > 3 ? std::atoll(argv[3]) : 32;
  const std::string format = argc > 4 ? argv[4] : "text";
  if (format != "text" && format != "json") return usage();
  std::unique_ptr<obs::JsonlFileSink> sink;
  std::optional<obs::ScopedTraceSink> scoped_sink;
  if (argc > 5) {
    sink = std::make_unique<obs::JsonlFileSink>(argv[5]);
    scoped_sink.emplace(sink.get());
  }
  const data::Dataset test = fresh_test_set(loaded.ckpt, n, 991);

  edge::EdgeServer server(0, completion_for(loaded.net));
  const webinfer::WebModel model = webinfer::export_browser_model(
      loaded.net, loaded.ckpt.config.in_channels, loaded.ckpt.config.in_h,
      loaded.ckpt.config.in_w);
  edge::BrowserClient client(webinfer::Engine(model),
                             core::ExitPolicy{loaded.ckpt.tau},
                             server.port());
  const obs::ScopedProfiling profiling;  // per-op webinfer timings too
  for (std::int64_t i = 0; i < test.size(); ++i) {
    (void)client.classify(test.image(i));
  }
  server.stop();  // settle the server-side counters before the snapshot

  const obs::Snapshot snap = obs::Snapshot::merge(
      {obs::Registry::global().snapshot(), server.metrics().snapshot(),
       server.registry()->metrics().snapshot(), client.metrics().snapshot()});
  if (format == "json") {
    std::printf("%s\n", snap.to_json().c_str());
  } else {
    std::printf("%s", snap.to_text().c_str());
  }
  if (sink) sink->flush();
  return 0;
}

int cmd_scrape(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[2]));
  const std::string path = argc > 3 ? argv[3] : "/metrics";
  const obs::HttpGetResult r = obs::http_get(port, path);
  std::fwrite(r.body.data(), 1, r.body.size(), stdout);
  if (r.status != 200) {
    std::fprintf(stderr, "scrape %s: HTTP %d\n", path.c_str(), r.status);
    return 1;
  }
  return 0;
}

int cmd_models(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[2]));
  const obs::HttpGetResult r = obs::http_get(port, "/statusz");
  if (r.status != 200) {
    std::fprintf(stderr, "models: HTTP %d from /statusz\n", r.status);
    return 1;
  }
  // /statusz is flat JSON; pull the registry fields out with string
  // scans (good enough for a glanceable CLI view, like cmd_watch).
  const std::string& body = r.body;
  std::size_t pos = body.find("\"models\":[");
  if (pos == std::string::npos) {
    std::fprintf(stderr, "models: /statusz has no model registry\n");
    return 1;
  }
  while ((pos = body.find("{\"id\":", pos)) != std::string::npos) {
    const std::size_t end = body.find('}', pos);
    if (end == std::string::npos) break;
    std::printf("%s\n", body.substr(pos, end - pos + 1).c_str());
    pos = end + 1;
  }
  const auto number_after = [&body](const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = body.find(needle);
    return at == std::string::npos
               ? 0.0
               : std::atof(body.c_str() + at + needle.size());
  };
  std::printf("live incl. draining: %.0f\n", number_after("models_live"));
  std::printf("rejected unknown-model requests: %.0f\n",
              number_after("rejected_unknown_model"));
  return 0;
}

/// First sample value for `name` in a Prometheus exposition body, or 0.
double sample_value(const std::string& body, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || body[pos - 1] == '\n') {
      return std::atof(body.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return 0.0;
}

int cmd_watch(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[2]));
  const std::int64_t count = argc > 3 ? std::atoll(argv[3]) : 10;
  const double interval_ms = argc > 4 ? std::atof(argv[4]) : 1000.0;
  double prev_requests = 0.0;
  Stopwatch watch;
  double prev_s = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const obs::HttpGetResult r = obs::http_get(port, "/metrics");
    if (r.status != 200) {
      std::fprintf(stderr, "watch: HTTP %d from /metrics\n", r.status);
      return 1;
    }
    const double requests =
        sample_value(r.body, "lcrs_edge_server_requests");
    const double now_s = watch.seconds();
    const double rate = i == 0 || now_s <= prev_s
                            ? 0.0
                            : (requests - prev_requests) / (now_s - prev_s);
    std::printf("requests %10.0f  (%8.1f req/s)  queue %4.0f  "
                "active_conns %4.0f  busy %6.0f  uptime %7.1fs\n",
                requests, rate,
                sample_value(r.body, "lcrs_edge_server_queue_depth"),
                sample_value(r.body, "lcrs_edge_server_active_connections"),
                sample_value(r.body, "lcrs_edge_server_rejected_busy"),
                sample_value(r.body, "lcrs_process_uptime_seconds"));
    std::fflush(stdout);
    prev_requests = requests;
    prev_s = now_s;
    if (i + 1 < count) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(interval_ms));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "train") return cmd_train(argc, argv);
    if (cmd == "export") return cmd_export(argc, argv);
    if (cmd == "eval") return cmd_eval(argc, argv);
    if (cmd == "bundle") return cmd_bundle(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "models") return cmd_models(argc, argv);
    if (cmd == "classify") return cmd_classify(argc, argv);
    if (cmd == "metrics") return cmd_metrics(argc, argv);
    if (cmd == "scrape") return cmd_scrape(argc, argv);
    if (cmd == "watch") return cmd_watch(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
