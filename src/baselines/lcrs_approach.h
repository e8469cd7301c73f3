// LCRS priced under the same cost model as the baselines.
//
// The browser downloads conv1 (float) plus the bit-packed binary branch,
// runs both per sample, and uploads the conv1 feature map only for the
// (1 - exit_fraction) of samples the entropy check rejects (Algorithm 2).
//
// lcrs_model_of is the one place an LcrsModel is assembled. Its byte
// counts come from the encoders that write what ships: an encoded
// kCompleteRequest frame (edge/protocol.h) and the serialized browser
// blob (webinfer/export.h); compute is priced from layer profiles.
#pragma once

#include "baselines/approach.h"
#include "core/composite.h"

namespace lcrs::baselines {

/// Profile of a composite network for cost evaluation.
struct LcrsModel {
  std::vector<models::LayerProfile> shared;  // conv1 stage
  std::vector<models::LayerProfile> branch;  // binary branch
  std::vector<models::LayerProfile> rest;    // edge-side main rest
  std::int64_t upload_bytes = 0;         // encoded conv1-map request frame
  std::int64_t browser_model_bytes = 0;  // serialized browser blob
  double exit_fraction = 0.8;            // P(exit at browser)
};

/// Profiles conv1, the binary branch and the main rest of `net` once for
/// a per-sample input of `sample_shape` [C, H, W], and takes the upload
/// and browser-blob sizes from the real encoders.
LcrsModel lcrs_model_of(core::CompositeNetwork& net, const Shape& sample_shape,
                        double exit_fraction);

ApproachCost evaluate_lcrs(const LcrsModel& model, const sim::CostModel& cost,
                           const sim::Scenario& scenario);

/// Stage costs of one recognition and the two exit paths' totals (Fig.
/// 10's LCRS-B / LCRS-M). The stage terms are deterministic link means.
struct LcrsPathCosts {
  double load_ms = 0.0;      // model download amortized over the session
  double browser_ms = 0.0;   // conv1 + binary branch
  double upload_ms = 0.0;    // conv1-map request frame
  double edge_ms = 0.0;      // main rest at the edge
  double download_ms = 0.0;  // result reply
  double exit_binary_ms = 0.0;  // end-to-end when the sample exits locally
  double exit_main_ms = 0.0;    // end-to-end when the edge completes it
};
LcrsPathCosts lcrs_path_costs(const LcrsModel& model,
                              const sim::CostModel& cost,
                              const sim::Scenario& scenario);

}  // namespace lcrs::baselines
