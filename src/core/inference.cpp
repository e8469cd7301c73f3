#include "core/inference.h"

#include "core/entropy.h"
#include "tensor/tensor_ops.h"

namespace lcrs::core {

InferenceResult collaborative_infer(CompositeNetwork& net,
                                    const ExitPolicy& policy,
                                    const Tensor& sample) {
  LCRS_CHECK(sample.rank() == 4 && sample.dim(0) == 1,
             "collaborative_infer expects a single [1,C,H,W] sample");
  InferenceResult r;
  CompositeOutput out = net.forward_binary_only(sample);
  r.shared = std::move(out.shared);

  const Tensor probs = softmax_rows(out.binary_logits);
  r.entropy = normalized_entropy(probs.data(), probs.dim(1));

  if (policy.should_exit(r.entropy)) {
    r.exit_point = ExitPoint::kBinaryBranch;
    r.probabilities = probs;
    r.predicted = argmax(probs);
    record_exit_decision(r.exit_point, r.entropy);
    return r;
  }

  // Fall back to the edge server's main branch on the shared features.
  const Tensor main_logits = net.forward_main_from_shared(r.shared);
  r.exit_point = ExitPoint::kMainBranch;
  r.probabilities = softmax_rows(main_logits);
  r.predicted = argmax(r.probabilities);
  record_exit_decision(r.exit_point, r.entropy);
  return r;
}

MainBatchCompletion complete_main_batch(CompositeNetwork& net,
                                        const Tensor& shared_batch) {
  LCRS_CHECK(shared_batch.rank() == 4 && shared_batch.dim(0) >= 1,
             "complete_main_batch expects a [k,C,H,W] feature batch");
  MainBatchCompletion out;
  const Tensor logits = net.forward_main_from_shared(shared_batch);
  out.probabilities = softmax_rows(logits);
  out.labels = argmax_rows(out.probabilities);
  return out;
}

}  // namespace lcrs::core
