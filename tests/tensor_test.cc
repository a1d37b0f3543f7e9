#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

TEST(TensorConstruction, ZerosHasCorrectShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 4);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0);
}

TEST(TensorConstruction, FullAndOnes) {
  EXPECT_EQ(Tensor::Full({3}, 2.5).data()[1], 2.5);
  EXPECT_EQ(Tensor::Ones({2, 2}).data()[3], 1.0);
  EXPECT_EQ(Tensor::Scalar(7.0).item(), 7.0);
}

TEST(TensorConstruction, FromVectorChecksSize) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At({1, 0}), 3.0);
  EXPECT_DEATH(Tensor::FromVector({2, 2}, {1, 2, 3}), "");
}

TEST(TensorConstruction, EyeAndArange) {
  Tensor eye = Tensor::Eye(3);
  EXPECT_EQ(eye.At({1, 1}), 1.0);
  EXPECT_EQ(eye.At({1, 2}), 0.0);
  Tensor ar = Tensor::Arange(4);
  EXPECT_EQ(ar.data()[3], 3.0);
}

TEST(TensorConstruction, RandRespectsBounds) {
  Rng rng(1);
  Tensor t = Tensor::Rand({100}, &rng, -2.0, 3.0);
  EXPECT_GE(MinAll(t), -2.0);
  EXPECT_LT(MaxAll(t), 3.0);
}

TEST(TensorSemantics, CopySharesBufferCloneDoesNot) {
  Tensor a = Tensor::Zeros({2});
  Tensor shared = a;
  Tensor cloned = a.Clone();
  a.data()[0] = 5.0;
  EXPECT_EQ(shared.data()[0], 5.0);
  EXPECT_EQ(cloned.data()[0], 0.0);
}

TEST(TensorReshape, SharesBufferAndInfersDim) {
  Tensor a = Tensor::Arange(12);
  Tensor b = a.Reshape({3, -1});
  EXPECT_EQ(b.dim(1), 4);
  b.data()[0] = 99.0;
  EXPECT_EQ(a.data()[0], 99.0);
  EXPECT_DEATH(a.Reshape({5, 2}), "");
}

TEST(TensorPermute, TransposeMatchesManual) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = a.Transpose(0, 1);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.At({0, 1}), 4.0);
  EXPECT_EQ(t.At({2, 0}), 3.0);
}

TEST(TensorPermute, ThreeAxisPermutation) {
  Rng rng(2);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor p = a.Permute({2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 4; ++k) {
        EXPECT_EQ(p.At({k, i, j}), a.At({i, j, k}));
      }
    }
  }
}

TEST(TensorPermute, RoundTripIsIdentity) {
  Rng rng(3);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor round = a.Permute({1, 2, 0}).Permute({2, 0, 1});
  EXPECT_TRUE(round.AllClose(a));
}

TEST(Broadcast, ShapesFollowNumpyRules) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({2, 1, 4}, {3, 1}), (Shape{2, 3, 4}));
  EXPECT_EQ(BroadcastShapes({1}, {5}), (Shape{5}));
  EXPECT_DEATH(BroadcastShapes({2, 3}, {4}), "");
}

TEST(Broadcast, AddBroadcastsRows) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.At({0, 0}), 11.0);
  EXPECT_EQ(c.At({1, 2}), 36.0);
}

TEST(Broadcast, MulBroadcastsColumns) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {2, 10});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.At({0, 2}), 6.0);
  EXPECT_EQ(c.At({1, 0}), 40.0);
}

TEST(Elementwise, BasicOps) {
  Tensor a = Tensor::FromVector({4}, {1, -2, 3, -4});
  EXPECT_EQ(Neg(a).data()[1], 2.0);
  EXPECT_EQ(Abs(a).data()[3], 4.0);
  EXPECT_EQ(Relu(a).data()[1], 0.0);
  EXPECT_EQ(Relu(a).data()[2], 3.0);
  EXPECT_DOUBLE_EQ(AddScalar(a, 1.0).data()[0], 2.0);
  EXPECT_DOUBLE_EQ(MulScalar(a, -1.5).data()[0], -1.5);
  EXPECT_NEAR(Exp(Tensor::Scalar(1.0)).item(), M_E, 1e-12);
  EXPECT_NEAR(Log(Tensor::Scalar(M_E)).item(), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(Tensor::Scalar(0.0)).item(), 0.5, 1e-12);
  EXPECT_NEAR(Tanh(Tensor::Scalar(0.0)).item(), 0.0, 1e-12);
  EXPECT_NEAR(Sqrt(Tensor::Scalar(9.0)).item(), 3.0, 1e-12);
  EXPECT_NEAR(PowScalar(Tensor::Scalar(2.0), 3.0).item(), 8.0, 1e-12);
}

TEST(MatMul, TwoDimensional) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.At({0, 0}), 58.0);
  EXPECT_EQ(c.At({0, 1}), 64.0);
  EXPECT_EQ(c.At({1, 0}), 139.0);
  EXPECT_EQ(c.At({1, 1}), 154.0);
}

TEST(MatMul, BatchedWithBroadcast) {
  Rng rng(4);
  Tensor a = Tensor::Randn({2, 5, 3, 4}, &rng);
  Tensor b = Tensor::Randn({4, 6}, &rng);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 5, 3, 6}));
  // Spot-check one batch against 2-D matmul.
  Tensor a00({3, 4});
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) a00.At({i, j}) = a.At({1, 2, i, j});
  }
  Tensor expected = MatMul(a00, b);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(c.At({1, 2, i, j}), expected.At({i, j}), 1e-12);
    }
  }
}

TEST(MatMul, LeftBroadcastMatrix) {
  // [N,N] x [B,T,N,D]: the propagation pattern used by GCN operators.
  Rng rng(5);
  Tensor p = Tensor::Randn({3, 3}, &rng);
  Tensor x = Tensor::Randn({2, 4, 3, 5}, &rng);
  Tensor y = MatMul(p, x);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 3, 5}));
  double expected = 0.0;
  for (int64_t j = 0; j < 3; ++j) expected += p.At({1, j}) * x.At({0, 2, j, 4});
  EXPECT_NEAR(y.At({0, 2, 1, 4}), expected, 1e-12);
}

TEST(MatMul, InnerDimMismatchDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({4, 2});
  EXPECT_DEATH(MatMul(a, b), "");
}

class ReductionTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ReductionTest, SumMatchesManual) {
  const int64_t axis = GetParam();
  Rng rng(6);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor s = Sum(a, axis);
  Tensor s_keep = Sum(a, axis, /*keepdim=*/true);
  EXPECT_EQ(s_keep.dim(axis), 1);
  EXPECT_NEAR(SumAll(s), SumAll(a), 1e-9);
  EXPECT_NEAR(SumAll(s_keep), SumAll(a), 1e-9);
  // Check one entry by brute force.
  std::vector<int64_t> index = {1, 2, 3};
  double manual = 0.0;
  for (int64_t k = 0; k < a.dim(axis); ++k) {
    std::vector<int64_t> idx = index;
    idx[axis] = k;
    manual += a.At(idx);
  }
  std::vector<int64_t> reduced_index = index;
  reduced_index[axis] = 0;
  EXPECT_NEAR(s_keep.At(reduced_index), manual, 1e-9);
}

TEST_P(ReductionTest, MeanIsSumOverExtent) {
  const int64_t axis = GetParam();
  Rng rng(7);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor mean = Mean(a, axis, true);
  Tensor sum = Sum(a, axis, true);
  EXPECT_TRUE(mean.AllClose(
      MulScalar(sum, 1.0 / static_cast<double>(a.dim(axis))), 1e-12));
}

TEST_P(ReductionTest, MaxIsUpperBound) {
  const int64_t axis = GetParam();
  Rng rng(8);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor mx = Max(a, axis, true);
  Tensor diff = Sub(BroadcastTo(mx, a.shape()), a);
  EXPECT_GE(MinAll(diff), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAxes, ReductionTest, ::testing::Values(0, 1, 2));

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Rng rng(9);
  Tensor a = Tensor::Randn({4, 7}, &rng, 0.0, 3.0);
  Tensor s = Softmax(a, 1);
  for (int64_t r = 0; r < 4; ++r) {
    double total = 0.0;
    for (int64_t c = 0; c < 7; ++c) {
      const double v = s.At({r, c});
      EXPECT_GT(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  // Order preserved.
  for (int64_t c = 1; c < 7; ++c) {
    EXPECT_EQ(a.At({2, c}) > a.At({2, 0}), s.At({2, c}) > s.At({2, 0}));
  }
}

TEST(Softmax, StableForLargeValues) {
  Tensor a = Tensor::FromVector({1, 2}, {1000.0, 1000.0});
  Tensor s = Softmax(a, 1);
  EXPECT_NEAR(s.data()[0], 0.5, 1e-12);
}

TEST(SliceConcatPad, RoundTrip) {
  Rng rng(10);
  Tensor a = Tensor::Randn({2, 6, 3}, &rng);
  Tensor left = Slice(a, 1, 0, 2);
  Tensor middle = Slice(a, 1, 2, 3);
  Tensor right = Slice(a, 1, 5, 1);
  Tensor back = Concat({left, middle, right}, 1);
  EXPECT_TRUE(back.AllClose(a));
}

TEST(SliceConcatPad, PadAddsZeros) {
  Tensor a = Tensor::Ones({2, 2});
  Tensor p = Pad(a, 0, 1, 2);
  EXPECT_EQ(p.shape(), (Shape{5, 2}));
  EXPECT_EQ(p.At({0, 0}), 0.0);
  EXPECT_EQ(p.At({1, 1}), 1.0);
  EXPECT_EQ(p.At({4, 0}), 0.0);
  EXPECT_NEAR(SumAll(p), SumAll(a), 1e-12);
}

TEST(SliceConcatPad, SliceBoundsChecked) {
  Tensor a = Tensor::Zeros({3});
  EXPECT_DEATH(Slice(a, 0, 2, 2), "");
}

TEST(BroadcastReduce, ReduceToScalarTargets) {
  // Regression: an empty (rank-0) target used to index target[i] out of
  // bounds; it must behave like the canonical scalar shape [1].
  Rng rng(20);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor to_empty = ReduceTo(a, {});
  EXPECT_EQ(to_empty.shape(), (Shape{1}));
  EXPECT_NEAR(to_empty.item(), SumAll(a), 1e-9);
  Tensor to_one = ReduceTo(a, {1});
  EXPECT_EQ(to_one.shape(), (Shape{1}));
  EXPECT_EQ(to_one.item(), to_empty.item());
}

TEST(BroadcastReduce, ReduceToRankMismatchDies) {
  // A target of higher rank than the input is not a reduction; it must
  // CHECK-fail cleanly instead of reading past the end of the target shape.
  Tensor a = Tensor::Zeros({3});
  EXPECT_DEATH(ReduceTo(a, {1, 1, 3}), "");
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(ReduceTo(b, {4, 3}), "");
}

TEST(BroadcastReduce, BroadcastToMatchesStridedExpansion) {
  Rng rng(21);
  Tensor a = Tensor::Randn({3, 1, 4}, &rng);
  Tensor big = BroadcastTo(a, {2, 3, 5, 4});
  EXPECT_EQ(big.shape(), (Shape{2, 3, 5, 4}));
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 5; ++j) {
        for (int64_t k = 0; k < 4; ++k) {
          EXPECT_EQ(big.At({b, i, j, k}), a.At({i, 0, k}));
        }
      }
    }
  }
  EXPECT_DEATH(BroadcastTo(Tensor::Zeros({3}), {4}), "");
}

TEST(BroadcastReduce, ReduceToIsAdjointOfBroadcastTo) {
  // <BroadcastTo(a), b> == <a, ReduceTo(b)> for random a, b.
  Rng rng(11);
  const Shape small = {3, 1, 4};
  const Shape big = {2, 3, 5, 4};
  Tensor a = Tensor::Randn(small, &rng);
  Tensor b = Tensor::Randn(big, &rng);
  const double lhs = SumAll(Mul(BroadcastTo(a, big), b));
  const double rhs = SumAll(Mul(a, ReduceTo(b, small)));
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(InPlace, AddAndScale) {
  Tensor a = Tensor::Ones({3});
  AddInPlace(&a, Tensor::Full({3}, 2.0));
  EXPECT_EQ(a.data()[0], 3.0);
  ScaleInPlace(&a, 0.5);
  EXPECT_EQ(a.data()[2], 1.5);
}

TEST(Norm, MatchesDefinition) {
  Tensor a = Tensor::FromVector({2}, {3.0, 4.0});
  EXPECT_NEAR(Norm(a), 5.0, 1e-12);
}

TEST(Norm, SumSquaresIsSquaredNormWithoutSqrtRoundTrip) {
  Tensor a = Tensor::FromVector({2}, {3.0, 4.0});
  EXPECT_EQ(SumSquares(a), 25.0);
  Rng rng(22);
  Tensor r = Tensor::Randn({37, 11}, &rng);
  EXPECT_NEAR(SumSquares(r), Norm(r) * Norm(r), 1e-9);
  double manual = 0.0;
  for (int64_t i = 0; i < r.size(); ++i) {
    manual += r.data()[i] * r.data()[i];
  }
  EXPECT_NEAR(SumSquares(r), manual, 1e-9);
}

TEST(MatMul, BlockedKernelMatchesNaiveReference) {
  Rng rng(23);
  // Sizes straddling the 4x4 register tile, including tails on every edge.
  for (const auto& [m, k, n] :
       std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 9}, {16, 33, 12}}) {
    const Tensor a = Tensor::Randn({m, k}, &rng);
    const Tensor b = Tensor::Randn({k, n}, &rng);
    const Tensor blocked = MatMul(a, b);
    const Tensor naive = MatMulNaive(a, b);
    ASSERT_EQ(blocked.shape(), naive.shape());
    for (int64_t i = 0; i < blocked.size(); ++i) {
      EXPECT_EQ(blocked.data()[i], naive.data()[i]) << "m=" << m;
    }
  }
}

TEST(TensorDeath, ScalarItemRequiresSingleElement) {
  EXPECT_DEATH(Tensor::Zeros({2}).item(), "");
}

}  // namespace
}  // namespace autocts
