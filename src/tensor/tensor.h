// Dense float32 tensor, the workhorse value type of the library.
//
// Design notes:
//  * Contiguous row-major storage; NCHW layout for image batches.
//  * Value semantics with shared storage would invite aliasing bugs in a
//    training framework, so Tensor owns its buffer and copies are deep.
//    Moves are cheap; kernels pass by const& / return by value.
//  * Element type is float only -- the paper's models are float32 with a
//    separate bit-packed representation in src/binary for the XNOR path.
//  * Invariant: storage size == shape().numel() for every constructed
//    tensor (the default tensor is the empty Shape{0}, not a rank-0
//    scalar), so numel() reads the storage size in O(1). Hot loops index
//    through data() over a numel() hoisted once; the bounds-checked
//    operator[] is for cold code and tests. A moved-from tensor holds no
//    storage (numel() == 0) and is only fit to be assigned or destroyed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/shape.h"

namespace lcrs {

class Tensor {
 public:
  /// The empty tensor, Shape{0}: numel() == 0 and no storage.
  Tensor() : shape_{0} {}

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.numel()), 0.0f) {}

  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    LCRS_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
               "data size " << data_.size() << " != numel "
                            << shape_.numel());
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }

  /// I.i.d. draws from N(mean, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);

  /// I.i.d. draws from U[lo, hi).
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  /// Kaiming-style fan-in init used for conv/linear weights.
  static Tensor kaiming(Shape shape, Rng& rng, std::int64_t fan_in);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const {
    return static_cast<std::int64_t>(data_.size());
  }
  std::int64_t dim(std::int64_t i) const { return shape_[i]; }
  std::int64_t rank() const { return shape_.rank(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) {
    LCRS_ASSERT(i >= 0 && i < numel(), "flat index out of range");
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    LCRS_ASSERT(i >= 0 && i < numel(), "flat index out of range");
    return data_[static_cast<std::size_t>(i)];
  }

  /// NCHW accessor for rank-4 tensors.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>(flat4(n, c, h, w))];
  }
  float at4(std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w) const {
    return data_[static_cast<std::size_t>(flat4(n, c, h, w))];
  }

  /// Row-major accessor for rank-2 tensors.
  float& at2(std::int64_t r, std::int64_t c) {
    LCRS_ASSERT(rank() == 2, "at2 on rank " << rank());
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  float at2(std::int64_t r, std::int64_t c) const {
    LCRS_ASSERT(rank() == 2, "at2 on rank " << rank());
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  /// Returns a tensor viewing the same data with a new shape (copying;
  /// numel must match).
  Tensor reshaped(Shape new_shape) const;

  /// Copies row range [begin, end) of the outermost dimension.
  Tensor slice_outer(std::int64_t begin, std::int64_t end) const;

  void fill(float value);

  bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

 private:
  std::int64_t flat4(std::int64_t n, std::int64_t c, std::int64_t h,
                     std::int64_t w) const {
    LCRS_ASSERT(rank() == 4, "at4 on rank " << rank());
    return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace lcrs
