// Central catalogue of metric names.
//
// Every statically-known metric name in the tree is declared here and
// referenced as a constant at registration sites;
// scripts/lint_invariants.py (rule "metric-name") rejects inline string
// literals passed to Registry::counter/gauge/histogram anywhere else, so
// a name cannot silently fork into two near-identical spellings.
//
// Dynamic families (per-layer, per-op, per-baseline) go through the
// builder functions at the bottom, which compose names from catalogued
// prefixes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace lcrs::obs::names {

// --- browser client -------------------------------------------------
inline constexpr const char* kClientRequests = "client.requests";
inline constexpr const char* kClientExitBinary = "client.exit.binary_branch";
inline constexpr const char* kClientExitMain = "client.exit.main_branch";
inline constexpr const char* kClientExitFallback =
    "client.exit.binary_fallback";
inline constexpr const char* kClientRetries = "client.edge.retries";
inline constexpr const char* kClientReconnects = "client.edge.reconnects";
inline constexpr const char* kClientBusyRejections =
    "client.edge.busy_rejections";
inline constexpr const char* kClientModelUnavailable =
    "client.edge.model_unavailable";
inline constexpr const char* kClientEdgeRoundtripUs =
    "client.edge.roundtrip_us";
inline constexpr const char* kClientBrowserComputeUs =
    "client.browser.compute_us";
inline constexpr const char* kClientSerializeUs = "client.serialize_us";

// --- span names on the client side of a request ---------------------
inline constexpr const char* kSpanClientConv1 = "client.conv1";
inline constexpr const char* kSpanClientBinaryBranch = "client.binary_branch";
inline constexpr const char* kSpanClientSerialize = "client.serialize";
inline constexpr const char* kSpanClientNetwork = "client.network";

// --- edge server -----------------------------------------------------
inline constexpr const char* kServerRequests = "edge.server.requests";
inline constexpr const char* kServerConnections = "edge.server.connections";
inline constexpr const char* kServerConnectionErrors =
    "edge.server.connection_errors";
inline constexpr const char* kServerActiveConnections =
    "edge.server.active_connections";
inline constexpr const char* kServerCompletionUs =
    "edge.server.completion_us";
// Worker-pool / batcher instruments (see DESIGN.md "Edge serving model").
inline constexpr const char* kServerQueueDepth = "edge.server.queue_depth";
inline constexpr const char* kServerQueueWaitUs =
    "edge.server.queue_wait_us";
inline constexpr const char* kServerBatchSize = "edge.server.batch_size";
inline constexpr const char* kServerBatches = "edge.server.batches";
inline constexpr const char* kServerRejectedBusy =
    "edge.server.rejected_busy";
inline constexpr const char* kServerRejectedModel =
    "edge.server.rejected_unknown_model";

// --- edge model registry (edge/model_registry.h) ---------------------
// models = registered entries; models_live additionally counts retired
// snapshots still pinned by in-flight batches (the drain gauge: it
// returns to `models` once every old-model batch finishes).
inline constexpr const char* kRegistryModels = "edge.registry.models";
inline constexpr const char* kRegistryModelsLive =
    "edge.registry.models_live";
inline constexpr const char* kRegistrySwaps = "edge.registry.swaps";
inline constexpr const char* kRegistryEvictions = "edge.registry.evictions";

// --- span names on the edge side of a request -----------------------
inline constexpr const char* kSpanEdgeDeserialize = "edge.deserialize";
inline constexpr const char* kSpanEdgeComplete = "edge.complete";
inline constexpr const char* kSpanEdgeSerialize = "edge.serialize";

// --- edge server: ops plane shape gauges (set once at startup) -------
inline constexpr const char* kServerWorkerPoolSize =
    "edge.server.worker_pool_size";
inline constexpr const char* kServerMaxBatch = "edge.server.max_batch";
inline constexpr const char* kServerReady = "edge.server.ready";

// --- ops-plane HTTP server -------------------------------------------
inline constexpr const char* kOpsRequests = "obs.ops.requests";
inline constexpr const char* kOpsHttpErrors = "obs.ops.http_errors";

// --- process-level (obs::register_process_gauges) --------------------
inline constexpr const char* kProcessUptimeSeconds =
    "process.uptime_seconds";
inline constexpr const char* kProcessSimdLevel = "process.simd_level";
inline constexpr const char* kProcessBuildDebug = "process.build_debug";
inline constexpr const char* kProcessHardwareThreads =
    "process.hardware_threads";

// --- exit policy (Eq. 7 entropy threshold) ---------------------------
inline constexpr const char* kExitEntropy = "core.exit.entropy";
inline constexpr const char* kExitBinary = "core.exit.binary_branch";
inline constexpr const char* kExitMain = "core.exit.main_branch";
inline constexpr const char* kExitFallback = "core.exit.binary_fallback";

// --- training --------------------------------------------------------
inline constexpr const char* kTrainBatchUs = "train.batch_us";

// --- dynamic-name builders -------------------------------------------

/// Per-layer timing in Sequential: "nn.layer.<index>.<kind>.<stage>",
/// e.g. "nn.layer.0.conv2d.forward_us". `kind` must already be a valid
/// lowercase metric segment (layer kind() strings are).
inline std::string layer_metric(std::size_t index, const std::string& kind,
                                const std::string& stage) {
  return "nn.layer." + std::to_string(index) + "." + kind + "." + stage;
}

/// Per-model serving counters on the edge server:
/// "edge.server.model.<id>.<which>"; `which` is "requests" (the only
/// member the server emits). Ids are u32 registry keys, so the family
/// stays bounded by the registry size.
inline std::string model_metric(std::uint32_t model_id,
                                const std::string& which) {
  return "edge.server.model." + std::to_string(model_id) + "." + which;
}

/// Per-op timing in the webinfer engine:
/// "webinfer.op.<index>.<opname>.us", e.g. "webinfer.op.0.conv2d.us".
inline std::string webinfer_op_metric(std::size_t index,
                                      const std::string& op) {
  return "webinfer.op." + std::to_string(index) + "." + op + ".us";
}

/// Per-baseline cost gauges: "baseline.<slug>.<which>" with `which` in
/// {"total_ms", "comm_ms", "compute_ms"}; `slug` is the approach name
/// lowercased with non-alphanumerics mapped to '_'.
inline std::string baseline_gauge(const std::string& approach,
                                  const std::string& which) {
  std::string slug;
  slug.reserve(approach.size());
  for (char c : approach) {
    if (c >= 'A' && c <= 'Z') {
      slug.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      slug.push_back(c);
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return "baseline." + slug + "." + which;
}

}  // namespace lcrs::obs::names
