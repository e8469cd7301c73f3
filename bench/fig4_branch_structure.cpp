// Reproduces Figure 4: accuracy and model size of binary-branch
// structures on an AlexNet main branch.
//   (a) sweep the number of binary convolutional layers (1 binary FC);
//   (b) sweep the number of binary fully-connected layers (1 binary conv).
//
// The main branch is jointly trained once; each branch variant is then
// trained on the frozen conv1 features, exactly the design question the
// figure answers. The size axis is the serialized full-width browser
// blob: float conv1 plus the packed branch and the blob's framing.
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"

using namespace lcrs;

namespace {

/// conv1 features of a dataset through the trained shared stage.
Tensor shared_features(core::CompositeNetwork& net, const Tensor& images) {
  std::vector<Tensor> chunks;
  const std::int64_t batch = 64;
  std::vector<std::int64_t> dims;
  Tensor out;
  for (std::int64_t begin = 0; begin < images.dim(0); begin += batch) {
    const std::int64_t count = std::min(batch, images.dim(0) - begin);
    Tensor f = net.shared_stage().forward(
        images.slice_outer(begin, begin + count), false);
    if (out.numel() == 0) {
      dims = f.shape().dims();
      dims[0] = images.dim(0);
      out = Tensor{Shape(dims)};
    }
    const std::int64_t per = f.numel() / count;
    std::copy(f.data(), f.data() + f.numel(), out.data() + begin * per);
  }
  return out;
}

double train_branch(nn::Sequential& branch, const Tensor& train_x,
                    const std::vector<std::int64_t>& train_y,
                    const Tensor& test_x,
                    const std::vector<std::int64_t>& test_y) {
  nn::Adam adam(1e-3);
  const std::int64_t batch = 32;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (std::int64_t begin = 0; begin + batch <= train_x.dim(0);
         begin += batch) {
      branch.zero_grad();
      const Tensor x = train_x.slice_outer(begin, begin + batch);
      const std::vector<std::int64_t> y(train_y.begin() + begin,
                                        train_y.begin() + begin + batch);
      const Tensor logits = branch.forward(x, true);
      const nn::LossResult r = nn::softmax_cross_entropy(logits, y);
      branch.backward(r.grad_logits);
      adam.step(branch.params());
    }
  }
  return nn::accuracy(branch.forward(test_x, false), test_y);
}

/// Full-width browser blob size of a branch structure (the size axis).
double full_width_branch_mb(const models::BinaryBranchConfig& bc) {
  Rng rng(2);
  const models::ModelConfig full{models::Arch::kAlexNet, 3, 32, 32, 10, 1.0};
  core::CompositeNetwork net = core::CompositeNetwork::build(full, bc, rng);
  const baselines::LcrsModel lcrs =
      baselines::lcrs_model_of(net, Shape{3, 32, 32}, 0.0);
  return static_cast<double>(lcrs.browser_model_bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  std::printf("Figure 4: binary branch structure sweep (AlexNet main "
              "branch, CIFAR10-like)\n\n");

  // Jointly train the composite once; reuse its shared stage.
  bench::TrainedCombo combo =
      bench::run_combo(models::Arch::kAlexNet, "CIFAR10", 42);
  const Tensor train_f =
      shared_features(*combo.net, combo.data.train.images);
  const Tensor test_f = shared_features(*combo.net, combo.data.test.images);
  const std::int64_t in_c = combo.net->shared_out_c();
  const std::int64_t in_h = combo.net->shared_out_h();
  const std::int64_t in_w = combo.net->shared_out_w();
  std::printf("main branch trained: M_Acc %.2f%%  (conv1 features "
              "%lldx%lldx%lld)\n\n",
              100.0 * combo.result.main_accuracy,
              static_cast<long long>(in_c), static_cast<long long>(in_h),
              static_cast<long long>(in_w));

  std::printf("(a) n binary conv layers + 1 binary FC + float FC\n");
  std::printf("%6s %10s %14s\n", "n", "B_Acc(%)", "size(MB,full)");
  bench::print_rule(36);
  for (int n = 1; n <= 4; ++n) {
    models::BinaryBranchConfig bc = models::default_branch(
        models::Arch::kAlexNet);
    bc.n_binary_conv = n;
    bc.n_binary_fc = 1;
    Rng rng(100 + n);
    auto branch =
        models::build_binary_branch(bc, in_c, in_h, in_w, 10, rng);
    const double acc =
        train_branch(*branch, train_f, combo.data.train.labels, test_f,
                     combo.data.test.labels);
    std::printf("%6d %10.2f %14.3f\n", n, 100.0 * acc,
                full_width_branch_mb(bc));
    std::fflush(stdout);
  }

  std::printf("\n(b) 1 binary conv + n binary FC layers + float FC\n");
  std::printf("%6s %10s %14s\n", "n", "B_Acc(%)", "size(MB,full)");
  bench::print_rule(36);
  for (int n = 1; n <= 4; ++n) {
    models::BinaryBranchConfig bc = models::default_branch(
        models::Arch::kAlexNet);
    bc.n_binary_conv = 1;
    bc.n_binary_fc = n;
    Rng rng(200 + n);
    auto branch =
        models::build_binary_branch(bc, in_c, in_h, in_w, 10, rng);
    const double acc =
        train_branch(*branch, train_f, combo.data.train.labels, test_f,
                     combo.data.test.labels);
    std::printf("%6d %10.2f %14.3f\n", n, 100.0 * acc,
                full_width_branch_mb(bc));
    std::fflush(stdout);
  }

  std::printf("\nPaper reference: accuracy degrades as more binary conv "
              "layers stack; one or two\nbinary FC layers give the best "
              "accuracy/size trade-off.\n");
  return 0;
}
