// Unit tests for the tensor substrate: shapes, storage, ops, serialization.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace lcrs {
namespace {

TEST(Shape, NumelAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(Shape{}.numel(), 1);
}

TEST(Shape, EqualityAndToString) {
  EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
  EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
  EXPECT_EQ((Shape{4, 5}).to_string(), "[4, 5]");
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({2, -1}), Error);
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t{Shape{3, 3}};
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, DefaultIsEmptyNotScalar) {
  const Tensor t;
  EXPECT_EQ(t.shape(), (Shape{0}));
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.shape().numel(), t.numel());
  EXPECT_THROW(t[0], Error);
}

TEST(Tensor, NumelMatchesShapeForEveryConstructor) {
  Rng rng(7);
  const Tensor tensors[] = {
      Tensor{}, Tensor{Shape{}}, Tensor{Shape{0, 3}}, Tensor{Shape{2, 3}},
      Tensor{Shape{2}, {1.0f, 2.0f}}, Tensor::randn(Shape{3, 1, 5}, rng),
      Tensor::full(Shape{4}, 1.5f).reshaped(Shape{2, 2}),
      Tensor::ones(Shape{4, 2}).slice_outer(1, 3)};
  for (const Tensor& t : tensors) {
    EXPECT_EQ(t.numel(), t.shape().numel()) << t.shape().to_string();
    EXPECT_THROW(t[t.numel()], Error) << t.shape().to_string();
  }
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full(Shape{5}, 2.5f);
  EXPECT_EQ(t[4], 2.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t[0], -1.0f);
}

TEST(Tensor, At4IndexingIsRowMajorNCHW) {
  Tensor t{Shape{2, 3, 4, 5}};
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Rng rng(1);
  const Tensor t = Tensor::randn(Shape{2, 6}, rng);
  const Tensor r = t.reshaped(Shape{3, 4});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], r[i]);
  EXPECT_THROW(t.reshaped(Shape{5}), Error);
}

TEST(Tensor, SliceOuter) {
  Tensor t{Shape{4, 2}};
  for (std::int64_t i = 0; i < 8; ++i) t[i] = static_cast<float>(i);
  const Tensor s = t.slice_outer(1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s[0], 2.0f);
  EXPECT_EQ(s[3], 5.0f);
  EXPECT_THROW(t.slice_outer(3, 5), Error);
}

TEST(Tensor, RandnMomentsRoughlyCorrect) {
  Rng rng(42);
  const Tensor t = Tensor::randn(Shape{10000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(mean(t), 1.0, 0.1);
  double var = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double d = static_cast<double>(t[i]) - 1.0;
    var += d * d;
  }
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, KaimingScalesWithFanIn) {
  Rng rng(42);
  const Tensor small = Tensor::kaiming(Shape{64, 9}, rng, 9);
  const Tensor large = Tensor::kaiming(Shape{64, 900}, rng, 900);
  EXPECT_GT(mean_abs(small), mean_abs(large));
}

TEST(Ops, AddSubMulScale) {
  Tensor a{Shape{3}}, b{Shape{3}};
  for (int i = 0; i < 3; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = 2.0f;
  }
  EXPECT_EQ(add(a, b)[2], 5.0f);
  EXPECT_EQ(sub(a, b)[0], -1.0f);
  EXPECT_EQ(mul(a, b)[1], 4.0f);
  EXPECT_EQ(scale(a, 3.0f)[2], 9.0f);
  axpy_inplace(a, 0.5f, b);
  EXPECT_EQ(a[0], 2.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  const Tensor a{Shape{2}}, b{Shape{3}};
  EXPECT_THROW(add(a, b), Error);
  EXPECT_THROW(max_abs_diff(a, b), Error);
}

TEST(Ops, Reductions) {
  Tensor t{Shape{4}};
  t[0] = 1.0f; t[1] = -2.0f; t[2] = 3.0f; t[3] = -4.0f;
  EXPECT_DOUBLE_EQ(sum(t), -2.0);
  EXPECT_DOUBLE_EQ(mean(t), -0.5);
  EXPECT_DOUBLE_EQ(mean_abs(t), 2.5);
  EXPECT_DOUBLE_EQ(l1_norm(t), 10.0);
  EXPECT_NEAR(l2_norm(t), std::sqrt(30.0), 1e-12);
  EXPECT_EQ(max_value(t), 3.0f);
  EXPECT_EQ(argmax(t), 2);
}

TEST(Ops, SignConventionAtZero) {
  Tensor t{Shape{3}};
  t[0] = -0.5f; t[1] = 0.0f; t[2] = 0.5f;
  const Tensor s = sign(t);
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 1.0f);  // sign(0) = +1, the XNOR-Net convention
  EXPECT_EQ(s[2], 1.0f);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder) {
  Tensor logits{Shape{2, 3}};
  logits.at2(0, 0) = 1.0f; logits.at2(0, 1) = 2.0f; logits.at2(0, 2) = 3.0f;
  logits.at2(1, 0) = 100.0f; logits.at2(1, 1) = 100.0f;
  logits.at2(1, 2) = 100.0f;
  const Tensor p = softmax_rows(logits);
  for (std::int64_t r = 0; r < 2; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < 3; ++c) {
      s += static_cast<double>(p.at2(r, c));
    }
    EXPECT_NEAR(s, 1.0, 1e-6);
  }
  EXPECT_LT(p.at2(0, 0), p.at2(0, 2));
  EXPECT_NEAR(p.at2(1, 1), 1.0 / 3.0, 1e-6);  // large logits stay stable
}

TEST(Ops, ArgmaxRows) {
  Tensor logits{Shape{2, 3}};
  logits.at2(0, 1) = 5.0f;
  logits.at2(1, 2) = 5.0f;
  const auto am = argmax_rows(logits);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 2);
}

TEST(Serialize, RoundTrip) {
  Rng rng(3);
  const Tensor t = Tensor::randn(Shape{2, 3, 4, 5}, rng);
  ByteWriter w;
  write_tensor(w, t);
  EXPECT_EQ(static_cast<std::int64_t>(w.size()),
            tensor_wire_bytes(t.shape()));
  ByteReader r(w.bytes());
  const Tensor back = read_tensor(r);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(max_abs_diff(back, t), 0.0f);
}

TEST(Serialize, DefaultTensorRoundTrips) {
  ByteWriter w;
  write_tensor(w, Tensor{});
  EXPECT_EQ(static_cast<std::int64_t>(w.size()),
            tensor_wire_bytes(Tensor{}.shape()));
  ByteReader r(w.bytes());
  const Tensor back = read_tensor(r);
  EXPECT_EQ(back.shape(), (Shape{0}));
  EXPECT_EQ(back.numel(), 0);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, BadMagicThrows) {
  ByteWriter w;
  w.write_u32(0x12345678);
  w.write_u32(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(read_tensor(r), ParseError);
}

TEST(Serialize, CorruptDimThrows) {
  ByteWriter w;
  write_tensor(w, Tensor{Shape{2, 2}});
  std::vector<std::uint8_t> bytes = w.take();
  bytes[9] = 0xFF;  // clobber the rank/dim region
  ByteReader r(bytes);
  EXPECT_THROW(read_tensor(r), ParseError);
}

}  // namespace
}  // namespace lcrs
