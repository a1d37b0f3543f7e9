// Randomized property tests across module boundaries: random expression
// graphs through the autograd engine, random genotypes through the model
// builder, random operator pipelines, and random data round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "autograd/grad_check.h"
#include "common/constants.h"
#include "common/parallel.h"
#include "core/derived_model.h"
#include "core/operator_set.h"
#include "data/scaler.h"
#include "data/window_dataset.h"
#include "graph/adjacency.h"
#include "nn/batch_norm.h"
#include "nn/state_dict.h"
#include "ops/op_registry.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

// ---------------------------------------------------------------------------
// Random autograd expression trees: build a random differentiable scalar
// from two leaf tensors and check its gradients by finite differences.
// ---------------------------------------------------------------------------

Variable RandomExpression(const std::vector<Variable>& leaves, Rng* rng,
                          int depth) {
  if (depth == 0) {
    return leaves[rng->UniformInt(leaves.size())];
  }
  const Variable a = RandomExpression(leaves, rng, depth - 1);
  switch (rng->UniformInt(8)) {
    case 0:
      return ag::Add(a, RandomExpression(leaves, rng, depth - 1));
    case 1:
      return ag::Sub(a, RandomExpression(leaves, rng, depth - 1));
    case 2:
      return ag::Mul(a, RandomExpression(leaves, rng, depth - 1));
    case 3:
      return ag::Tanh(a);
    case 4:
      return ag::Sigmoid(a);
    case 5:
      return ag::MulScalar(a, rng->Uniform(-2.0, 2.0));
    case 6:
      return ag::Softmax(a, rng->UniformInt(a.ndim()));
    default:
      return ag::AddScalar(a, rng->Uniform(-1.0, 1.0));
  }
}

class RandomExpressionTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpressionTest, GradientsMatchFiniteDifferences) {
  Rng rng(1000 + GetParam());
  const Tensor leaf_a = Tensor::Rand({2, 3}, &rng, -1.0, 1.0);
  const Tensor leaf_b = Tensor::Rand({2, 3}, &rng, -1.0, 1.0);
  // Use a forked deterministic stream so the expression is identical for
  // every evaluation inside the grad check.
  const uint64_t expression_seed = rng.Next();
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        Rng expression_rng(expression_seed);
        return ag::MeanAll(RandomExpression(v, &expression_rng, 4));
      },
      {leaf_a, leaf_b}, 1e-6, 1e-4);
  EXPECT_TRUE(result.ok) << result.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpressionTest,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Random operator pipelines preserve the [B, T, N, D] contract and stay
// finite under composition.
// ---------------------------------------------------------------------------

class RandomPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineTest, ComposedOperatorsStayShapeSafeAndFinite) {
  Rng rng(2000 + GetParam());
  ops::OpContext context;
  context.channels = 6;
  context.num_nodes = 5;
  context.rng = &rng;
  Rng graph_rng(7);
  context.adjacency = graph::DistanceGaussianAdjacency(
      graph::RandomPositions(5, &graph_rng), 0.5, 0.1);

  const std::vector<std::string> pool = core::FullOperatorSet().op_names;
  std::vector<ops::StOperatorPtr> pipeline;
  const int64_t length = 2 + rng.UniformInt(3);
  for (int64_t i = 0; i < length; ++i) {
    pipeline.push_back(
        ops::CreateOp(pool[rng.UniformInt(pool.size())], context));
  }
  Variable h(Tensor::Rand({2, 6, 5, 6}, &rng, -1.0, 1.0), false);
  const Shape original = h.shape();
  for (auto& op : pipeline) {
    op->SetTraining(false);
    h = op->Forward(h);
    ASSERT_EQ(h.shape(), original);
  }
  for (int64_t i = 0; i < h.size(); ++i) {
    ASSERT_TRUE(std::isfinite(h.value().data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Random genotypes build, run, serialize, and rebuild consistently.
// ---------------------------------------------------------------------------

core::Genotype RandomGenotype(Rng* rng) {
  const std::vector<std::string> ops = core::CompactOperatorSet().op_names;
  core::Genotype genotype;
  genotype.nodes_per_block = 3 + rng->UniformInt(3);  // 3..5
  const int64_t blocks = 1 + rng->UniformInt(3);      // 1..3
  for (int64_t b = 0; b < blocks; ++b) {
    core::BlockGenotype block;
    for (int64_t j = 1; j < genotype.nodes_per_block; ++j) {
      // Always the predecessor edge with a non-zero op.
      block.edges.push_back(
          {j - 1, j, ops[1 + rng->UniformInt(ops.size() - 1)]});
      if (j >= 2 && rng->Bernoulli(0.8)) {
        block.edges.push_back({rng->UniformInt(j - 1), j,
                               ops[1 + rng->UniformInt(ops.size() - 1)]});
      }
    }
    genotype.blocks.push_back(block);
    genotype.block_inputs.push_back(rng->UniformInt(b + 1));
  }
  return genotype;
}

class RandomGenotypeTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomGenotypeTest, BuildsRunsAndRoundTrips) {
  Rng rng(3000 + GetParam());
  const core::Genotype genotype = RandomGenotype(&rng);
  ASSERT_TRUE(genotype.Validate().ok());

  models::ModelContext context;
  context.num_nodes = 4;
  context.in_features = 2;
  context.input_length = 6;
  context.output_length = 3;
  context.hidden_dim = 8;
  context.seed = 17;
  Rng graph_rng(9);
  context.adjacency = graph::DistanceGaussianAdjacency(
      graph::RandomPositions(4, &graph_rng), 0.5, 0.1);

  core::DerivedModel model(genotype, context);
  model.SetTraining(false);
  Variable x(Tensor::Rand({2, 6, 4, 2}, &rng, -1.0, 1.0), false);
  const Tensor out = model.Forward(x).value();
  ASSERT_EQ(out.shape(), (Shape{2, 3, 4, 1}));

  // Serialize the genotype AND the weights; a rebuilt model reproduces the
  // outputs bit-for-bit.
  const StatusOr<core::Genotype> reloaded =
      core::Genotype::FromText(genotype.ToText());
  ASSERT_TRUE(reloaded.ok());
  core::DerivedModel rebuilt(reloaded.value(), context);
  rebuilt.SetTraining(false);
  ASSERT_TRUE(nn::LoadStateDict(&rebuilt, nn::SaveStateDict(model)).ok());
  EXPECT_TRUE(rebuilt.Forward(x).value().AllClose(out, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGenotypeTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Data-layer round trips under random configurations.
// ---------------------------------------------------------------------------

class RandomDataTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDataTest, ScalerRoundTripAndWindowCoverage) {
  Rng rng(4000 + GetParam());
  const int64_t steps = 40 + rng.UniformInt(60);
  const int64_t nodes = 1 + rng.UniformInt(6);
  const int64_t features = 1 + rng.UniformInt(3);
  Tensor values = Tensor::Rand({steps, nodes, features}, &rng, -50.0, 50.0);

  data::StandardScaler scaler;
  scaler.Fit(values);
  EXPECT_TRUE(scaler
                  .InverseTransformFeature(
                      Slice(scaler.Transform(values), 2, 0, 1), 0)
                  .AllClose(Slice(values, 2, 0, 1), 1e-8));

  data::WindowSpec spec;
  spec.input_length = 1 + rng.UniformInt(8);
  spec.output_length = 1 + rng.UniformInt(8);
  data::WindowDataset windows(values, spec);
  const int64_t expected =
      steps - spec.input_length - spec.output_length + 1;
  EXPECT_EQ(windows.NumSamples(), std::max<int64_t>(0, expected));
  if (windows.NumSamples() > 0) {
    Tensor x, y;
    windows.GetBatch({windows.NumSamples() - 1}, &x, &y);
    // The last window's final target must be the final timestamp.
    EXPECT_EQ(y.At({0, spec.output_length - 1, nodes - 1, 0}),
              values.At({steps - 1, nodes - 1, 0}));
  }
}

TEST_P(RandomDataTest, MaskedScalerRoundTripsAndPreservesNullSentinels) {
  Rng rng(4100 + GetParam());
  const int64_t steps = 30 + rng.UniformInt(40);
  const int64_t nodes = 1 + rng.UniformInt(5);
  const int64_t features = 1 + rng.UniformInt(3);
  const double null_value = 0.0;
  // Strictly positive readings, so a zero is unambiguously a sentinel.
  Tensor values = Tensor::Rand({steps, nodes, features}, &rng, 5.0, 80.0);
  for (int64_t i = 0; i < values.size(); ++i) {
    if (rng.Bernoulli(0.2)) values.data()[i] = null_value;
  }

  data::StandardScaler scaler;
  scaler.Fit(values, /*mask_null=*/true, null_value);
  const Tensor transformed = scaler.Transform(values);
  for (int64_t i = 0; i < values.size(); ++i) {
    if (values.data()[i] == null_value) {
      // Failed-sensor markers ride through the transform bit-exactly.
      ASSERT_EQ(transformed.data()[i], null_value) << "sentinel scaled at " << i;
    }
  }

  const Tensor raw0 = Slice(values, 2, 0, 1);
  const Tensor back =
      scaler.InverseTransformFeature(Slice(transformed, 2, 0, 1), 0);
  const Tensor scaled0 = Slice(transformed, 2, 0, 1);
  ASSERT_TRUE(back.shape() == raw0.shape());
  for (int64_t i = 0; i < back.size(); ++i) {
    if (raw0.data()[i] == null_value) {
      ASSERT_EQ(back.data()[i], null_value) << "sentinel rescaled at " << i;
      continue;
    }
    // A real value whose z-score happens to land within the null-match
    // tolerance of the sentinel is genuinely ambiguous for the inverse;
    // skip those rare collisions instead of asserting either outcome.
    if (std::abs(scaled0.data()[i] - null_value) < 10 * kNullMatchTolerance) {
      continue;
    }
    ASSERT_NEAR(back.data()[i], raw0.data()[i], 1e-8)
        << "round trip broke at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDataTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Tensor algebra identities on random inputs.
// ---------------------------------------------------------------------------

class TensorAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(TensorAlgebraTest, MatMulIsAssociativeAndDistributive) {
  Rng rng(5000 + GetParam());
  const int64_t m = 2 + rng.UniformInt(4);
  const int64_t k = 2 + rng.UniformInt(4);
  const int64_t n = 2 + rng.UniformInt(4);
  const int64_t p = 2 + rng.UniformInt(4);
  const Tensor a = Tensor::Randn({m, k}, &rng);
  const Tensor b = Tensor::Randn({k, n}, &rng);
  const Tensor c = Tensor::Randn({n, p}, &rng);
  // (AB)C == A(BC)
  EXPECT_TRUE(MatMul(MatMul(a, b), c)
                  .AllClose(MatMul(a, MatMul(b, c)), 1e-9));
  // A(B + B') == AB + AB'
  const Tensor b2 = Tensor::Randn({k, n}, &rng);
  EXPECT_TRUE(MatMul(a, Add(b, b2))
                  .AllClose(Add(MatMul(a, b), MatMul(a, b2)), 1e-9));
  // Transpose reverses: (AB)^T == B^T A^T
  EXPECT_TRUE(MatMul(a, b).Transpose(0, 1).AllClose(
      MatMul(b.Transpose(0, 1), a.Transpose(0, 1)), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TensorAlgebraTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Kernel parity: the blocked parallel MatMul and the parallel reductions
// must reproduce their naive serial references bit-for-bit on random shapes
// (including broadcast batch dimensions), for serial and threaded pools.
// ---------------------------------------------------------------------------

class KernelParityTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelParityTest, BlockedMatMulMatchesNaiveOnRandomBroadcastShapes) {
  Rng rng(6000 + GetParam());
  const int64_t m = 1 + rng.UniformInt(12);
  const int64_t k = 1 + rng.UniformInt(12);
  const int64_t n = 1 + rng.UniformInt(12);
  // Random batch ranks with random size-1 axes so broadcasting kicks in.
  Shape a_shape, b_shape;
  const int64_t batch_rank = rng.UniformInt(3);  // 0..2
  for (int64_t i = 0; i < batch_rank; ++i) {
    const int64_t extent = 1 + rng.UniformInt(3);
    a_shape.push_back(rng.Bernoulli(0.3) ? 1 : extent);
    b_shape.push_back(rng.Bernoulli(0.3) ? 1 : extent);
  }
  a_shape.push_back(m);
  a_shape.push_back(k);
  b_shape.push_back(k);
  b_shape.push_back(n);
  const Tensor a = Tensor::Randn(a_shape, &rng);
  const Tensor b = Tensor::Randn(b_shape, &rng);
  const Tensor naive = MatMulNaive(a, b);
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    const Tensor blocked = MatMul(a, b);
    ASSERT_EQ(blocked.shape(), naive.shape());
    for (int64_t i = 0; i < blocked.size(); ++i) {
      ASSERT_EQ(blocked.data()[i], naive.data()[i])
          << ShapeToString(a_shape) << " x " << ShapeToString(b_shape)
          << " threads=" << threads << " element " << i;
    }
  }
  SetNumThreads(1);
}

TEST_P(KernelParityTest, ParallelReductionsMatchSerialReference) {
  Rng rng(7000 + GetParam());
  Shape shape;
  const int64_t rank = 1 + rng.UniformInt(3);  // 1..3
  for (int64_t i = 0; i < rank; ++i) shape.push_back(1 + rng.UniformInt(9));
  const Tensor a = Tensor::Randn(shape, &rng);
  const int64_t axis = rng.UniformInt(rank);

  // Serial per-element references, accumulating in ascending index order —
  // the order the parallel kernels guarantee.
  Shape reduced_shape = shape;
  reduced_shape[axis] = 1;
  Tensor sum_ref(reduced_shape);
  {
    std::vector<int64_t> index(rank, 0);
    for (int64_t flat = 0; flat < a.size(); ++flat) {
      std::vector<int64_t> reduced = index;
      reduced[axis] = 0;
      sum_ref.At(reduced) += a.At(index);
      for (int64_t d = rank - 1; d >= 0; --d) {
        if (++index[d] < shape[d]) break;
        index[d] = 0;
      }
    }
  }
  const double* pa = a.data();
  double sum_all_ref = 0.0;
  double sum_sq_ref = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    sum_all_ref += pa[i];
    sum_sq_ref += pa[i] * pa[i];
  }

  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    const Tensor sum = Sum(a, axis, /*keepdim=*/true);
    ASSERT_EQ(sum.shape(), sum_ref.shape());
    for (int64_t i = 0; i < sum.size(); ++i) {
      ASSERT_EQ(sum.data()[i], sum_ref.data()[i])
          << ShapeToString(shape) << " axis=" << axis
          << " threads=" << threads;
    }
    // Whole-tensor reductions: small tensors fit one chunk, so the chunked
    // combination matches plain left-to-right accumulation exactly.
    ASSERT_EQ(SumAll(a), sum_all_ref);
    ASSERT_EQ(SumSquares(a), sum_sq_ref);
  }
  SetNumThreads(1);
}

// Bit patterns, so NaNs and signed zeros compare exactly.
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Normal values with a sprinkling of NaN, +-0, +-inf and denormals.
Tensor RandomWithSpecials(const Shape& shape, Rng* rng) {
  constexpr double kSpecials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  Tensor t = Tensor::Randn(shape, rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    if (rng->Bernoulli(0.02)) t.data()[i] = kSpecials[rng->UniformInt(8)];
  }
  return t;
}

// Offset into a row-major tensor of `shape` of the element that broadcasts
// to multi-index `index` of a (right-aligned, higher-rank) output.
int64_t BroadcastOffset(const Shape& shape, const std::vector<int64_t>& index) {
  const size_t lead = index.size() - shape.size();
  int64_t offset = 0;
  for (size_t i = 0; i < shape.size(); ++i) {
    offset = offset * shape[i] + (shape[i] == 1 ? 0 : index[lead + i]);
  }
  return offset;
}

// Calls visit(flat, index) for every element of `shape` in row-major order.
template <typename Visit>
void ForEachIndex(const Shape& shape, Visit visit) {
  std::vector<int64_t> index(shape.size(), 0);
  const int64_t total = NumElements(shape);
  for (int64_t flat = 0; flat < total; ++flat) {
    visit(flat, index);
    for (int64_t d = static_cast<int64_t>(shape.size()) - 1; d >= 0; --d) {
      if (++index[d] < shape[d]) break;
      index[d] = 0;
    }
  }
}

// A random rank-0..6 output shape. A large one holds more than
// kElementwiseGrain elements, so runs straddle ParallelFor chunks; its
// largest axis is returned in `*long_axis`.
Shape RandomBroadcastTarget(Rng* rng, bool large, int64_t* long_axis) {
  Shape shape;
  const int64_t rank = large ? 1 + rng->UniformInt(6) : rng->UniformInt(7);
  for (int64_t i = 0; i < rank; ++i) shape.push_back(1 + rng->UniformInt(6));
  *long_axis = -1;
  if (large) {
    *long_axis = rng->UniformInt(rank);
    const int64_t others = NumElements(shape) / shape[*long_axis];
    shape[*long_axis] = (kElementwiseGrain + others - 1) / others + 1 +
                        rng->UniformInt(40);
  }
  return shape;
}

// An operand that broadcasts to `target`: the whole operand [1], or
// `target` with some leading axes missing and some axes of size 1. Axis
// `keep` of `target` (if any) is neither dropped nor squashed.
Shape RandomOperandShape(const Shape& target, int64_t keep, Rng* rng) {
  if (keep < 0 && rng->Bernoulli(0.15)) return {1};
  const int64_t rank = static_cast<int64_t>(target.size());
  int64_t missing = rng->Bernoulli(0.5) ? 0 : rng->UniformInt(rank + 1);
  if (keep >= 0) missing = std::min(missing, keep);
  Shape shape(target.begin() + missing, target.end());
  for (int64_t axis = missing; axis < rank; ++axis) {
    if (axis != keep && rng->Bernoulli(0.3)) shape[axis - missing] = 1;
  }
  return shape;
}

TEST_P(KernelParityTest, BinaryOpsMatchMultiIndexReferenceBitForBit) {
  Rng rng(8000 + GetParam());
  using Kernel = Tensor (*)(const Tensor&, const Tensor&);
  using Scalar = double (*)(double, double);
  const std::vector<std::pair<Kernel, Scalar>> ops = {
      {&Add, [](double x, double y) { return x + y; }},
      {&Sub, [](double x, double y) { return x - y; }},
      {&Mul, [](double x, double y) { return x * y; }},
      {&Div, [](double x, double y) { return x / y; }},
      {&Maximum, [](double x, double y) { return std::max(x, y); }}};
  for (int draw = 0; draw < 6; ++draw) {
    int64_t long_axis = -1;
    const Shape target = RandomBroadcastTarget(&rng, draw % 3 == 0, &long_axis);
    const Shape a_shape = RandomOperandShape(target, long_axis, &rng);
    const Shape b_shape = RandomOperandShape(target, -1, &rng);
    const Tensor a = RandomWithSpecials(a_shape, &rng);
    const Tensor b = RandomWithSpecials(b_shape, &rng);
    // Right-aligned broadcast of the two operand shapes, computed here.
    Shape out_shape(std::max(a_shape.size(), b_shape.size()), 1);
    for (size_t i = 0; i < out_shape.size(); ++i) {
      const size_t from_end = out_shape.size() - 1 - i;
      for (const Shape* operand : {&a_shape, &b_shape}) {
        if (from_end < operand->size()) {
          out_shape[i] = std::max(out_shape[i],
                                  (*operand)[operand->size() - 1 - from_end]);
        }
      }
    }
    for (const int64_t threads : {1, 4}) {
      SetNumThreads(threads);
      for (size_t op = 0; op < ops.size(); ++op) {
        const Tensor out = ops[op].first(a, b);
        ASSERT_EQ(out.shape(), out_shape);
        ForEachIndex(out_shape, [&](int64_t flat, const std::vector<int64_t>& i) {
          const double want =
              ops[op].second(a.data()[BroadcastOffset(a_shape, i)],
                             b.data()[BroadcastOffset(b_shape, i)]);
          ASSERT_EQ(Bits(out.data()[flat]), Bits(want))
              << "op " << op << " " << ShapeToString(a_shape) << " with "
              << ShapeToString(b_shape) << " threads=" << threads
              << " element " << flat;
        });
      }
      const Tensor broadcast = BroadcastTo(b, target);
      ASSERT_EQ(broadcast.shape(), target);
      ForEachIndex(target, [&](int64_t flat, const std::vector<int64_t>& i) {
        ASSERT_EQ(Bits(broadcast.data()[flat]),
                  Bits(b.data()[BroadcastOffset(b_shape, i)]))
            << ShapeToString(b_shape) << " to " << ShapeToString(target)
            << " threads=" << threads << " element " << flat;
      });
    }
  }
  SetNumThreads(1);
}

TEST_P(KernelParityTest, EveryPermutationMatchesNaiveGather) {
  Rng rng(9000 + GetParam());
  Shape shape;
  const int64_t rank = 1 + rng.UniformInt(5);  // 1..5
  for (int64_t i = 0; i < rank; ++i) shape.push_back(1 + rng.UniformInt(5));
  const Tensor a = RandomWithSpecials(shape, &rng);
  const std::vector<int64_t> strides = RowMajorStrides(shape);
  std::vector<int64_t> perm(rank);
  for (int64_t i = 0; i < rank; ++i) perm[i] = i;
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    do {
      Shape out_shape(rank);
      for (int64_t i = 0; i < rank; ++i) out_shape[i] = shape[perm[i]];
      const Tensor out = a.Permute(perm);
      ASSERT_EQ(out.shape(), out_shape);
      ForEachIndex(out_shape, [&](int64_t flat, const std::vector<int64_t>& i) {
        int64_t offset = 0;
        for (int64_t axis = 0; axis < rank; ++axis) {
          offset += i[axis] * strides[perm[axis]];
        }
        ASSERT_EQ(Bits(out.data()[flat]), Bits(a.data()[offset]))
            << ShapeToString(shape) << " threads=" << threads;
      });
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  SetNumThreads(1);
}

TEST_P(KernelParityTest, FoldedMatMulWithWeightMatchesNaive) {
  Rng rng(9500 + GetParam());
  const int64_t k = 1 + rng.UniformInt(20);
  const int64_t n = 1 + rng.UniformInt(20);
  Shape a_shape;
  const int64_t lead = 1 + rng.UniformInt(3);  // 1..3 leading dims
  for (int64_t i = 0; i < lead; ++i) a_shape.push_back(1 + rng.UniformInt(5));
  int64_t m = 1 + rng.UniformInt(13);
  if (m % 4 == 0) ++m;  // rows that leave a partial register tile
  a_shape.push_back(m);
  a_shape.push_back(k);
  const Tensor a = Tensor::Randn(a_shape, &rng);
  const Tensor w = Tensor::Randn({k, n}, &rng);
  const Tensor naive = MatMulNaive(a, w);
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    const Tensor folded = MatMul(a, w);
    ASSERT_EQ(folded.shape(), naive.shape());
    for (int64_t i = 0; i < folded.size(); ++i) {
      ASSERT_EQ(Bits(folded.data()[i]), Bits(naive.data()[i]))
          << ShapeToString(a_shape) << " x [" << k << ", " << n
          << "] threads=" << threads << " element " << i;
    }
  }
  SetNumThreads(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelParityTest, ::testing::Range(0, 12));

TEST(KernelParity, ReluAndItsBackwardMaskMatchTheComparisonOnSpecialValues) {
  const std::vector<double> specials = {
      0.0, -0.0, 1.0, -1.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  // Tiled past one chunk so the threaded pass splits the work.
  const int64_t size = 2 * kElementwiseGrain + 5;
  Tensor x = Tensor::Uninitialized({size});
  for (int64_t i = 0; i < size; ++i) x.data()[i] = specials[i % specials.size()];
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    const Tensor y = Relu(x);
    Variable leaf(x, /*requires_grad=*/true);
    ag::SumAll(ag::Relu(leaf)).Backward();
    for (int64_t i = 0; i < size; ++i) {
      const double v = x.data()[i];
      ASSERT_EQ(Bits(y.data()[i]), Bits(v > 0.0 ? v : 0.0))
          << v << " threads=" << threads;
      ASSERT_EQ(Bits(leaf.grad().data()[i]), Bits(v > 0.0 ? 1.0 : 0.0))
          << v << " threads=" << threads;
    }
  }
  SetNumThreads(1);
}

// ---------------------------------------------------------------------------
// Numerical-robustness properties: the normalizing layers must map extreme
// but finite inputs (huge logits, zero variance, denormals) to finite
// outputs, at 1 and 4 threads. These are the layers the health monitor
// relies on NOT to manufacture NaN from healthy activations.
// ---------------------------------------------------------------------------

void ExpectAllFinite(const Tensor& tensor, const char* what) {
  for (int64_t i = 0; i < tensor.size(); ++i) {
    ASSERT_TRUE(std::isfinite(tensor.data()[i]))
        << what << " element " << i << " = " << tensor.data()[i];
  }
}

// Rows exercising the failure modes: +-1e300 logits (exp overflow without
// max-subtraction), a constant row (zero variance), denormals (underflow),
// and a mixed huge/tiny row (catastrophic cancellation in the variance).
Tensor ExtremeRows() {
  return Tensor::FromVector(
      {5, 4},
      {1e300, -1e300, 1e300, -1e300,  //
       7.5, 7.5, 7.5, 7.5,            //
       5e-324, 1e-310, -5e-324, 0.0,  //
       1e300, 1.0, -1e-300, 0.0,      //
       -744.0, 0.0, 744.0, 1.0});
}

TEST(ExtremeInputStability, SoftmaxStaysFiniteAndNormalized) {
  const Tensor logits = ExtremeRows();
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (const double temperature : {1.0, 0.1}) {
      const Variable out = ag::SoftmaxWithTemperature(
          Variable(logits, false), /*axis=*/1, temperature);
      ExpectAllFinite(out.value(), "softmax");
      for (int64_t row = 0; row < logits.dim(0); ++row) {
        double sum = 0.0;
        for (int64_t j = 0; j < logits.dim(1); ++j) {
          const double p = out.value().At({row, j});
          ASSERT_GE(p, 0.0);
          sum += p;
        }
        ASSERT_NEAR(sum, 1.0, 1e-12) << "row " << row;
      }
    }
  }
  SetNumThreads(1);
}

TEST(ExtremeInputStability, BatchNormStaysFiniteInBothModes) {
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    nn::BatchNorm batch_norm(4);
    batch_norm.SetTraining(true);
    const Variable trained =
        batch_norm.Forward(Variable(ExtremeRows(), false));
    ExpectAllFinite(trained.value(), "batch_norm training");
    // Eval mode normalizes with the running statistics the extreme batch
    // just updated; those must be usable too.
    batch_norm.SetTraining(false);
    const Variable evaluated =
        batch_norm.Forward(Variable(ExtremeRows(), false));
    ExpectAllFinite(evaluated.value(), "batch_norm eval");
  }
  SetNumThreads(1);
}

}  // namespace
}  // namespace autocts
