#include "core/composite.h"

#include "nn/linear.h"
#include "tensor/tensor_ops.h"

namespace lcrs::core {

CompositeNetwork::CompositeNetwork(models::MainBranch main,
                                   std::unique_ptr<nn::Sequential> binary,
                                   std::int64_t num_classes)
    : shared_(std::move(main.conv1)),
      main_rest_(std::move(main.rest)),
      binary_(std::move(binary)),
      num_classes_(num_classes),
      shared_out_c_(main.out_c),
      shared_out_h_(main.out_h),
      shared_out_w_(main.out_w) {
  LCRS_CHECK(shared_ && main_rest_ && binary_, "null composite stage");
  LCRS_CHECK(num_classes >= 2, "composite needs >= 2 classes");
}

CompositeNetwork CompositeNetwork::build(const models::ModelConfig& cfg,
                                         Rng& rng) {
  return build(cfg, models::default_branch(cfg.arch), rng);
}

CompositeNetwork CompositeNetwork::build(
    const models::ModelConfig& cfg, const models::BinaryBranchConfig& bc,
    Rng& rng) {
  models::MainBranch main = models::build_main_branch(cfg, rng);
  auto branch = models::build_binary_branch(bc, main.out_c, main.out_h,
                                            main.out_w, cfg.num_classes, rng);
  return CompositeNetwork(std::move(main), std::move(branch),
                          cfg.num_classes);
}

CompositeOutput CompositeNetwork::forward(const Tensor& input, bool train) {
  CompositeOutput out;
  out.shared = shared_->forward(input, train);
  out.main_logits = main_rest_->forward(out.shared, train);
  out.binary_logits = binary_->forward(out.shared, train);
  return out;
}

CompositeOutput CompositeNetwork::forward_binary_only(const Tensor& input) {
  CompositeOutput out;
  out.shared = shared_->forward(input, /*train=*/false);
  out.binary_logits = binary_->forward(out.shared, /*train=*/false);
  return out;
}

Tensor CompositeNetwork::forward_main_from_shared(const Tensor& shared) {
  return main_rest_->forward(shared, /*train=*/false);
}

void CompositeNetwork::backward(const Tensor& grad_main_logits,
                                const Tensor& grad_binary_logits) {
  Tensor g_shared = main_rest_->backward(grad_main_logits);
  Tensor g_shared_binary = binary_->backward(grad_binary_logits);
  add_inplace(g_shared, g_shared_binary);  // Eq. 1: joint loss sum
  shared_->backward(g_shared);
}

std::vector<nn::Param*> CompositeNetwork::params() {
  std::vector<nn::Param*> all = shared_->params();
  for (nn::Param* p : main_rest_->params()) all.push_back(p);
  for (nn::Param* p : binary_->params()) all.push_back(p);
  return all;
}

std::vector<nn::Param*> CompositeNetwork::main_params() {
  std::vector<nn::Param*> ps = shared_->params();
  for (nn::Param* p : main_rest_->params()) ps.push_back(p);
  return ps;
}

std::vector<nn::Param*> CompositeNetwork::binary_params() {
  return binary_->params();
}

void CompositeNetwork::zero_grad() {
  shared_->zero_grad();
  main_rest_->zero_grad();
  binary_->zero_grad();
}

void CompositeNetwork::prepare_edge_inference() {
  for (std::size_t i = 0; i < main_rest_->size(); ++i) {
    if (auto* fc = dynamic_cast<nn::Linear*>(&main_rest_->layer(i))) {
      fc->prepare_inference();
    }
  }
}

}  // namespace lcrs::core
