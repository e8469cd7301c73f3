// Ablation for paper Sec. IV-D.2 ("Location of binary branch"): attach
// the binary branch after deeper points e_h of the main branch and
// measure (i) the branch's accuracy and (ii) the expected per-recognition
// latency E[e_h] under the cost model. The paper argues E[e_h] - E[e_1] >
// 0: deeper attachment buys little accuracy but pays larger browser
// compute, model payload and upload sizes.
#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"

using namespace lcrs;

namespace {

/// Features of `images` after conv1 + the first `depth` layers of rest.
Tensor features_at_depth(core::CompositeNetwork& net, const Tensor& images,
                         std::size_t depth) {
  Tensor out;
  std::vector<std::int64_t> dims;
  const std::int64_t batch = 64;
  for (std::int64_t begin = 0; begin < images.dim(0); begin += batch) {
    const std::int64_t count = std::min(batch, images.dim(0) - begin);
    Tensor f = net.shared_stage().forward(
        images.slice_outer(begin, begin + count), false);
    f = net.main_rest().forward_prefix(f, depth);
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
  nn::Adam adam(2e-3);
  const std::int64_t batch = 32;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (std::int64_t begin = 0; begin + batch <= train_x.dim(0);
         begin += batch) {
      branch.zero_grad();
      const Tensor x = train_x.slice_outer(begin, begin + batch);
      const std::vector<std::int64_t> y(train_y.begin() + begin,
                                        train_y.begin() + begin + batch);
      const nn::LossResult r =
          nn::softmax_cross_entropy(branch.forward(x, true), y);
      branch.backward(r.grad_logits);
      adam.step(branch.params());
    }
  }
  return nn::accuracy(branch.forward(test_x, false), test_y);
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  std::printf("Ablation (Sec. IV-D.2): binary-branch attachment depth on "
              "AlexNet / CIFAR10-like\n\n");

  bench::TrainedCombo combo =
      bench::run_combo(models::Arch::kAlexNet, "CIFAR10", 4242);
  std::printf("main branch: M_Acc %.2f%%\n\n",
              100.0 * combo.result.main_accuracy);

  const sim::CostModel cost = sim::CostModel::paper_default();
  const sim::Scenario scenario;
  // Candidate attachment depths: after conv1 (e_1) and after each of the
  // first few layers of the main rest.
  const std::size_t depths[] = {0, 2, 3, 6};

  std::printf("%8s %10s %12s %12s %14s\n", "depth", "B_Acc(%)", "upload(KB)",
              "E[lat](ms)", "extra browser");
  bench::print_rule(62);
  for (const std::size_t depth : depths) {
    const Tensor train_f =
        features_at_depth(*combo.net, combo.data.train.images, depth);
    const Tensor test_f =
        features_at_depth(*combo.net, combo.data.test.images, depth);
    LCRS_CHECK(train_f.rank() == 4, "branch attachment needs a conv map");

    Rng rng(300 + depth);
    auto branch = models::build_binary_branch(
        models::default_branch(models::Arch::kAlexNet), train_f.dim(1),
        train_f.dim(2), train_f.dim(3), 10, rng);
    const double acc =
        train_branch(*branch, train_f, combo.data.train.labels, test_f,
                     combo.data.test.labels);

    // Expected latency: browser always runs conv1 + prefix + branch; on a
    // miss it uploads the attachment-point features.
    const auto shared_prof = models::profile_layers(
        combo.net->shared_stage(), Shape{3, 32, 32});
    const auto rest_prof = models::profile_layers(
        combo.net->main_rest(),
        Shape{combo.net->shared_out_c(), combo.net->shared_out_h(),
              combo.net->shared_out_w()});
    const auto branch_prof = models::profile_layers(
        *branch, Shape{train_f.dim(1), train_f.dim(2), train_f.dim(3)});

    const double browser_ms =
        cost.browser_compute_ms(shared_prof, 0, shared_prof.size()) +
        cost.browser_compute_ms(rest_prof, 0, depth) +
        cost.browser_compute_ms(branch_prof, 0, branch_prof.size());
    const std::int64_t upload_bytes = baselines::upload_frame_bytes(
        Shape{train_f.dim(1), train_f.dim(2), train_f.dim(3)});
    const double miss = 0.25;  // fixed miss rate isolates the geometry
    const double expected_ms =
        browser_ms + miss * (cost.network().upload_ms(upload_bytes) +
                             cost.edge_compute_ms(rest_prof, depth,
                                                  rest_prof.size()) +
                             cost.network().download_ms(
                                 scenario.result_bytes));
    const double extra_browser =
        cost.browser_compute_ms(rest_prof, 0, depth);
    std::printf("%8zu %10.2f %12.1f %12.1f %13.1fms\n", depth, 100.0 * acc,
                static_cast<double>(upload_bytes) / 1024.0, expected_ms,
                extra_browser);
    std::fflush(stdout);
  }

  bench::print_rule(62);
  std::printf("\nPaper claim: E[e_h] - E[e_1] > 0 -- accuracy gains from "
              "deeper attachment are\nsmall while the added browser compute "
              "dominates, so one branch after conv1 wins.\n");
  return 0;
}
