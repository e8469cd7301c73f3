// Differential im2col harness: decodes a convolution geometry + image
// from the input and cross-checks every lowering path against a naive
// tap-by-tap reference written independently here.
//
// Oracles (all bit-exact -- lowering only moves floats, never computes):
//   * im2col == the naive gather for every (row, pixel) tap;
//   * im2col_rows is exactly the transpose of im2col;
//   * col2im is the exact adjoint on integer-valued inputs: scattering
//     all-ones columns counts how many taps read each input pixel.
#include <cstring>
#include <vector>

#include "fuzz_util.h"
#include "tensor/im2col.h"

using namespace lcrs;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz::FuzzInput in(data, size);
  ConvGeom g;
  g.in_c = in.take_range(1, 4);
  g.in_h = in.take_range(1, 12);
  g.in_w = in.take_range(1, 12);
  g.kernel = in.take_range(1, 5);
  g.stride = in.take_range(1, 3);
  g.pad = in.take_range(0, 3);
  const float pads[] = {0.0f, 1.0f, -1.0f};
  const float pad_value = pads[in.take_range(0, 2)];
  try {
    g.validate();
  } catch (const Error&) {
    return 0;  // geometry the library rejects (kernel larger than input)
  }

  const std::int64_t image_size = g.in_c * g.in_h * g.in_w;
  const std::int64_t patch = g.patch_size();
  const std::int64_t pixels = g.out_h() * g.out_w();
  std::vector<float> image(static_cast<std::size_t>(image_size));
  for (auto& v : image) v = in.take_f32();

  // Naive reference gather.
  std::vector<float> ref(static_cast<std::size_t>(patch * pixels));
  {
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < g.in_c; ++c) {
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
          for (std::int64_t y = 0; y < g.out_h(); ++y) {
            for (std::int64_t x = 0; x < g.out_w(); ++x) {
              const std::int64_t in_y = y * g.stride + kh - g.pad;
              const std::int64_t in_x = x * g.stride + kw - g.pad;
              const bool inside = in_y >= 0 && in_y < g.in_h &&
                                  in_x >= 0 && in_x < g.in_w;
              ref[static_cast<std::size_t>(row * pixels +
                                           y * g.out_w() + x)] =
                  inside ? image[static_cast<std::size_t>(
                               (c * g.in_h + in_y) * g.in_w + in_x)]
                         : pad_value;
            }
          }
        }
      }
    }
  }

  std::vector<float> cols(static_cast<std::size_t>(patch * pixels),
                          -777.0f);
  im2col(image.data(), g, cols.data(), pad_value);
  FUZZ_ASSERT(std::memcmp(cols.data(), ref.data(),
                          ref.size() * sizeof(float)) == 0,
              "im2col diverges from the naive tap-by-tap gather");

  std::vector<float> rows(static_cast<std::size_t>(pixels * patch),
                          -777.0f);
  im2col_rows(image.data(), g, rows.data(), pad_value);
  for (std::int64_t r = 0; r < patch; ++r) {
    for (std::int64_t p = 0; p < pixels; ++p) {
      FUZZ_ASSERT(rows[static_cast<std::size_t>(p * patch + r)] ==
                      cols[static_cast<std::size_t>(r * pixels + p)],
                  "im2col_rows is not the transpose of im2col");
    }
  }

  // Adjoint: scattering all-ones columns must count, per input pixel,
  // exactly the taps the reference gather read from it.
  std::vector<float> ones(static_cast<std::size_t>(patch * pixels), 1.0f);
  std::vector<float> counts(static_cast<std::size_t>(image_size), 0.0f);
  col2im(ones.data(), g, counts.data());
  std::vector<float> want_counts(static_cast<std::size_t>(image_size),
                                 0.0f);
  {
    std::int64_t row = 0;
    for (std::int64_t c = 0; c < g.in_c; ++c) {
      for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
        for (std::int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
          for (std::int64_t y = 0; y < g.out_h(); ++y) {
            for (std::int64_t x = 0; x < g.out_w(); ++x) {
              const std::int64_t in_y = y * g.stride + kh - g.pad;
              const std::int64_t in_x = x * g.stride + kw - g.pad;
              if (in_y >= 0 && in_y < g.in_h && in_x >= 0 &&
                  in_x < g.in_w) {
                want_counts[static_cast<std::size_t>(
                    (c * g.in_h + in_y) * g.in_w + in_x)] += 1.0f;
              }
            }
          }
        }
      }
    }
  }
  FUZZ_ASSERT(std::memcmp(counts.data(), want_counts.data(),
                          counts.size() * sizeof(float)) == 0,
              "col2im is not the exact adjoint of the im2col gather");
  return 0;
}
