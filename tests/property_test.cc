// Randomized property tests across module boundaries: random expression
// graphs through the autograd engine, random genotypes through the model
// builder, random operator pipelines, and random data round-trips.
#include <gtest/gtest.h>

#include <cmath>

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

INSTANTIATE_TEST_SUITE_P(Seeds, KernelParityTest, ::testing::Range(0, 12));

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
