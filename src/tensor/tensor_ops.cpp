#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace lcrs {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  LCRS_CHECK(a.same_shape(b), op << ": shape mismatch "
                                 << a.shape().to_string() << " vs "
                                 << b.shape().to_string());
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] + b[i];
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] += b[i];
}

void axpy_inplace(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] += alpha * b[i];
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] - b[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] * b[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] * s;
  return out;
}

void scale_inplace(Tensor& a, float s) {
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] *= s;
}

double sum(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a[i]);
  }
  return acc;
}

double mean(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<double>(a.numel());
}

double mean_abs(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "mean_abs of empty tensor");
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(std::fabs(a[i]));
  }
  return acc / static_cast<double>(a.numel());
}

float max_value(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "max of empty tensor");
  float m = a[0];
  for (std::int64_t i = 1; i < a.numel(); ++i) m = std::max(m, a[i]);
  return m;
}

std::int64_t argmax(const Tensor& a) {
  LCRS_CHECK(a.numel() > 0, "argmax of empty tensor");
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < a.numel(); ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  LCRS_CHECK(logits.rank() == 2, "argmax_rows expects rank-2");
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  LCRS_CHECK(cols > 0, "argmax_rows on zero columns");
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = logits.data() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  LCRS_CHECK(logits.rank() == 2, "softmax_rows expects rank-2");
  const std::int64_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(logits.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float mx = in[0];
    for (std::int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      denom += static_cast<double>(o[c]);
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Tensor sign(const Tensor& a) {
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    out[i] = a[i] >= 0.0f ? 1.0f : -1.0f;
  }
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out(a.shape());
  const float* src = a.data();
  float* dst = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  return out;
}

Tensor hard_tanh(const Tensor& a) {
  Tensor out(a.shape());
  const float* src = a.data();
  float* dst = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = src[i];
    dst[i] = x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
  }
  return out;
}

Tensor max_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  LCRS_CHECK(x.rank() == 4, "max_pool2d expects NCHW, got "
                                << x.shape().to_string());
  LCRS_CHECK(kernel > 0 && stride > 0, "pool kernel/stride must be positive");
  const std::int64_t h = x.dim(2), w = x.dim(3);
  LCRS_CHECK(h >= kernel && w >= kernel,
             "pool window " << kernel << " larger than input " << h << "x"
                            << w);
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  Tensor out{Shape{x.dim(0), x.dim(1), oh, ow}};
  const std::int64_t planes = x.dim(0) * x.dim(1);
  const float* src = x.data();
  float* dst = out.data();
  // Each output scans its window in row-major order through the
  // branch-free `v > best ? v : best` from -inf, so NaN never wins. The
  // 2x2/stride-2 window every zoo model uses gets a fixed-shape loop that
  // gcc vectorizes across output columns; the general loop does not, and
  // at the AlexNet-half shapes it is 4-6x slower (EXPERIMENTS.md).
  if (kernel == 2 && stride == 2) {
    for (std::int64_t p = 0; p < planes; ++p) {
      const float* plane = src + p * h * w;
      for (std::int64_t y = 0; y < oh; ++y, dst += ow) {
        const float* r0 = plane + 2 * y * w;
        const float* r1 = r0 + w;
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          float best = -std::numeric_limits<float>::infinity();
          for (const float v : {r0[2 * xx], r0[2 * xx + 1], r1[2 * xx],
                                r1[2 * xx + 1]}) {
            best = v > best ? v : best;
          }
          dst[xx] = best;
        }
      }
    }
    return out;
  }
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = src + p * h * w;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xx = 0; xx < ow; ++xx) {
        const float* window = plane + y * stride * w + xx * stride;
        float best = -std::numeric_limits<float>::infinity();
        for (std::int64_t ky = 0; ky < kernel; ++ky) {
          for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const float v = window[ky * w + kx];
            best = v > best ? v : best;
          }
        }
        *dst++ = best;
      }
    }
  }
  return out;
}

double l1_norm(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(std::fabs(a[i]));
  }
  return acc;
}

double l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double v = static_cast<double>(a[i]);
    acc += v * v;
  }
  return std::sqrt(acc);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

Tensor stack_outer(const std::vector<Tensor>& parts) {
  LCRS_CHECK(!parts.empty(), "stack_outer needs at least one tensor");
  const Shape& first = parts.front().shape();
  LCRS_CHECK(first.rank() >= 1, "stack_outer needs rank >= 1");
  std::int64_t total_outer = 0;
  for (const Tensor& p : parts) {
    LCRS_CHECK(p.rank() == first.rank(),
               "stack_outer rank mismatch: " << p.shape().to_string()
                                             << " vs " << first.to_string());
    for (std::int64_t d = 1; d < first.rank(); ++d) {
      LCRS_CHECK(p.dim(d) == first[d],
                 "stack_outer inner-dim mismatch: " << p.shape().to_string()
                                                    << " vs "
                                                    << first.to_string());
    }
    total_outer += p.dim(0);
  }
  std::vector<std::int64_t> out_dims = first.dims();
  out_dims[0] = total_outer;
  Tensor out{Shape{std::move(out_dims)}};
  float* dst = out.data();
  for (const Tensor& p : parts) {
    const std::size_t n = static_cast<std::size_t>(p.numel());
    if (n > 0) std::memcpy(dst, p.data(), n * sizeof(float));
    dst += n;
  }
  return out;
}

}  // namespace lcrs
