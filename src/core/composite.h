// The LCRS composite network (paper Fig. 2): a shared first convolutional
// stage feeding both the full-precision main branch (edge server) and the
// binary side branch (mobile web browser).
#pragma once

#include <memory>

#include "models/zoo.h"
#include "nn/sequential.h"

namespace lcrs::core {

/// Outputs of one composite forward pass.
struct CompositeOutput {
  Tensor shared;         // conv1 feature map [N, C, H, W]
  Tensor main_logits;    // [N, classes]
  Tensor binary_logits;  // [N, classes]
};

class CompositeNetwork {
 public:
  /// Assembles from a split main branch and a binary branch built on the
  /// shared stage's output geometry.
  CompositeNetwork(models::MainBranch main,
                   std::unique_ptr<nn::Sequential> binary_branch,
                   std::int64_t num_classes);

  /// Convenience builder: main branch + its default binary branch.
  static CompositeNetwork build(const models::ModelConfig& cfg, Rng& rng);
  static CompositeNetwork build(const models::ModelConfig& cfg,
                                const models::BinaryBranchConfig& bc,
                                Rng& rng);

  /// Full forward through shared stage and both branches.
  CompositeOutput forward(const Tensor& input, bool train);

  /// Browser-side forward only: shared stage + binary branch.
  CompositeOutput forward_binary_only(const Tensor& input);

  /// Edge-side completion: main-branch logits from a conv1 feature map.
  Tensor forward_main_from_shared(const Tensor& shared);

  /// Joint backward for Eq. 1: both branch gradients flow into the shared
  /// stage. Call after forward(train=true).
  void backward(const Tensor& grad_main_logits,
                const Tensor& grad_binary_logits);

  std::vector<nn::Param*> params();
  void zero_grad();

  /// Parameters of (shared + main rest) and (binary branch) separately --
  /// Algorithm 1 trains them with separate optimizers/learning rates.
  std::vector<nn::Param*> main_params();
  std::vector<nn::Param*> binary_params();

  /// Caches W^T for every Linear in the main rest (the transposed-weight
  /// eval GEMM) so serving-time completions skip the per-call weight
  /// transpose. Conv2d needs no preparation: its forward runs the
  /// weights in place. Call before serving edge completions
  /// (main_branch_batch_completion does this); training invalidates the
  /// caches per-layer, so re-prepare afterwards. nn::load_params rebuilds
  /// prepared caches from the loaded weights.
  void prepare_edge_inference();

  nn::Sequential& shared_stage() { return *shared_; }
  nn::Sequential& main_rest() { return *main_rest_; }
  nn::Sequential& binary_branch() { return *binary_; }
  std::int64_t num_classes() const { return num_classes_; }
  std::int64_t shared_out_c() const { return shared_out_c_; }
  std::int64_t shared_out_h() const { return shared_out_h_; }
  std::int64_t shared_out_w() const { return shared_out_w_; }

 private:
  std::unique_ptr<nn::Sequential> shared_;
  std::unique_ptr<nn::Sequential> main_rest_;
  std::unique_ptr<nn::Sequential> binary_;
  std::int64_t num_classes_;
  std::int64_t shared_out_c_, shared_out_h_, shared_out_w_;
};

}  // namespace lcrs::core
