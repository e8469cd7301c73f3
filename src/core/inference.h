// Collaborative inference (paper Algorithm 2).
//
// The browser computes conv1 + binary branch; when the normalized entropy
// of the binary softmax clears tau the sample exits locally (LCRS-B),
// otherwise the conv1 feature map goes to the edge server which finishes
// the main branch (LCRS-M). This module is the pure decision logic; the
// simulated runtime (src/baselines) and the socket client (src/edge) wrap
// it with transport.
#pragma once

#include "core/composite.h"
#include "core/exit_policy.h"

namespace lcrs::core {

// ExitPoint and to_string(ExitPoint) live in core/exit_policy.h (pulled
// in above) alongside record_exit_decision, so the edge runtimes can
// record fallback exits without depending on this header.

/// Result of Algorithm 2 for one sample.
struct InferenceResult {
  std::int64_t predicted = -1;
  ExitPoint exit_point = ExitPoint::kBinaryBranch;
  double entropy = 0.0;           // binary-branch normalized entropy
  Tensor shared;                  // conv1 output (what would be uploaded)
  Tensor probabilities;           // softmax of the deciding branch
};

/// Runs Algorithm 2 in-process on a [1, C, H, W] sample.
InferenceResult collaborative_infer(CompositeNetwork& net,
                                    const ExitPolicy& policy,
                                    const Tensor& sample);

/// One batched edge-side completion: conv1 feature maps from k requests,
/// stacked [k, C, H, W], finished through the main branch in a single
/// Sequential forward. Row i of `probabilities` / `labels` is
/// bit-identical to completing request i alone -- every layer in the main
/// rest is row-independent in eval mode (im2col+GEMM, eval BatchNorm,
/// elementwise activations, row-wise softmax), which is what lets the
/// edge server batch across connections without changing any answer.
struct MainBatchCompletion {
  std::vector<std::int64_t> labels;  // argmax per row, length k
  Tensor probabilities;              // [k, num_classes] softmax rows
};

MainBatchCompletion complete_main_batch(CompositeNetwork& net,
                                        const Tensor& shared_batch);

}  // namespace lcrs::core
