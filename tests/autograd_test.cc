#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/variable.h"
#include "autograd/variable_ops.h"
#include "common/random.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

Tensor RandomTensor(const Shape& shape, uint64_t seed, double lo = -1.0,
                    double hi = 1.0) {
  Rng rng(seed);
  return Tensor::Rand(shape, &rng, lo, hi);
}

TEST(Variable, LeafBasics) {
  Variable v(Tensor::Full({2}, 3.0), /*requires_grad=*/true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.size(), 2);
}

TEST(Variable, BackwardAccumulatesIntoLeaves) {
  Variable a(Tensor::Full({3}, 2.0), true);
  Variable loss = ag::SumAll(ag::MulScalar(a, 4.0));
  loss.Backward();
  ASSERT_TRUE(a.has_grad());
  for (int64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a.grad().data()[i], 4.0);
}

TEST(Variable, GradsAccumulateAcrossBackwards) {
  Variable a(Tensor::Ones({2}), true);
  ag::SumAll(a).Backward();
  ag::SumAll(a).Backward();
  EXPECT_DOUBLE_EQ(a.grad().data()[0], 2.0);
  a.ClearGrad();
  EXPECT_FALSE(a.has_grad());
}

TEST(Variable, NoGradLeavesAreSkipped) {
  Variable a(Tensor::Ones({2}), false);
  Variable b(Tensor::Ones({2}), true);
  Variable loss = ag::SumAll(ag::Mul(a, b));
  loss.Backward();
  EXPECT_FALSE(a.has_grad());
  EXPECT_TRUE(b.has_grad());
}

TEST(Variable, DiamondGraphSumsBothPaths) {
  // loss = sum(a*a + a) -> d/da = 2a + 1.
  Variable a(Tensor::Full({2}, 3.0), true);
  Variable loss = ag::SumAll(ag::Add(ag::Mul(a, a), a));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().data()[0], 7.0);
}

TEST(Variable, SharedSubexpressionUsedTwice) {
  // b = 2a used by two consumers; d/da sum(b + 3b) = 8.
  Variable a(Tensor::Ones({2}), true);
  Variable b = ag::MulScalar(a, 2.0);
  Variable loss = ag::SumAll(ag::Add(b, ag::MulScalar(b, 3.0)));
  loss.Backward();
  EXPECT_DOUBLE_EQ(a.grad().data()[1], 8.0);
}

TEST(Variable, SharedInteriorNodeCountsOncePerBackward) {
  // x = 3a feeds two separate backward passes: d/da sum(x) = 3, then
  // d/da sum(2x) = 6. The second pass must not re-propagate the gradient
  // the first pass left on x (which would give 3 + 3 * 3 = 12).
  Variable a(Tensor::Ones({2}), true);
  Variable x = ag::MulScalar(a, 3.0);
  ag::SumAll(x).Backward();
  ag::SumAll(ag::MulScalar(x, 2.0)).Backward();
  EXPECT_DOUBLE_EQ(a.grad().data()[0], 9.0);
  EXPECT_DOUBLE_EQ(a.grad().data()[1], 9.0);
}

TEST(Variable, BackwardDropsInteriorGradsAndKeepsLeafGrads) {
  Variable a(Tensor::Full({2}, 2.0), true);
  Variable b(Tensor::Full({2}, 5.0), true);
  Variable product = ag::Mul(a, b);
  Variable shifted = ag::AddScalar(product, 1.0);
  Variable loss = ag::SumAll(shifted);
  loss.Backward();
  EXPECT_FALSE(product.has_grad());
  EXPECT_FALSE(shifted.has_grad());
  EXPECT_FALSE(loss.has_grad());
  ASSERT_TRUE(a.has_grad());
  ASSERT_TRUE(b.has_grad());
  EXPECT_DOUBLE_EQ(a.grad().data()[0], 5.0);
  EXPECT_DOUBLE_EQ(b.grad().data()[0], 2.0);
}

TEST(Variable, AccumulateGradKeepsOnlyUnsharedBuffers) {
  // A tensor the caller still holds is copied, so accumulating in place
  // later cannot reach the caller's tensor.
  Variable held_target(Tensor::Zeros({4}), true);
  const Tensor held = Tensor::Full({4}, 1.0);
  internal::AccumulateGrad(held_target.node().get(), held);
  EXPECT_NE(held_target.grad().data(), held.data());
  internal::AccumulateGrad(held_target.node().get(), held);
  EXPECT_DOUBLE_EQ(held_target.grad().data()[0], 2.0);
  EXPECT_DOUBLE_EQ(held.data()[0], 1.0);

  // A tensor nobody else holds becomes the gradient without a copy.
  Variable fresh_target(Tensor::Zeros({4}), true);
  Tensor fresh = Tensor::Full({4}, 1.0);
  const double* storage = fresh.data();
  internal::AccumulateGrad(fresh_target.node().get(), std::move(fresh));
  EXPECT_EQ(fresh_target.grad().data(), storage);
  EXPECT_DOUBLE_EQ(fresh_target.grad().data()[3], 1.0);
}

TEST(NoGradScope, NodesRecordNoInputsOrClosure) {
  Variable a(Tensor::Full({2}, 1.5), true);
  {
    const NoGradScope no_grad;
    const Variable y = ag::MulScalar(a, 2.0);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->inputs.empty());
    EXPECT_FALSE(y.node()->backward);
    EXPECT_DOUBLE_EQ(y.value().data()[0], 3.0);
  }
  const Variable z = ag::MulScalar(a, 2.0);
  EXPECT_TRUE(z.requires_grad());
  EXPECT_EQ(z.node()->inputs.size(), 1u);
}

TEST(NoGradScope, NestedScopesRestoreTheModeTheyFound) {
  Variable a(Tensor::Ones({2}), true);
  const auto records = [&a] { return ag::MulScalar(a, 2.0).requires_grad(); };
  EXPECT_TRUE(records());
  {
    const NoGradScope outer;
    EXPECT_FALSE(records());
    {
      const NoGradScope inner;
      EXPECT_FALSE(records());
    }
    EXPECT_FALSE(records());
  }
  EXPECT_TRUE(records());
}

TEST(NoGradScope, DoesNotReachAnotherThreadsTape) {
  Variable a(Tensor::Ones({2}), true);
  const auto records = [&a] { return ag::MulScalar(a, 2.0).requires_grad(); };
  // This thread holds a scope while another thread builds a node.
  {
    const NoGradScope no_grad;
    bool other_records = false;
    std::thread([&] { other_records = records(); }).join();
    EXPECT_TRUE(other_records);
    EXPECT_FALSE(records());
  }
  // Another thread holds a scope while this thread builds a node.
  std::promise<void> entered;
  std::promise<void> release;
  std::thread holder([&] {
    const NoGradScope no_grad;
    entered.set_value();
    release.get_future().wait();
  });
  entered.get_future().wait();
  EXPECT_TRUE(records());
  release.set_value();
  holder.join();
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks for every differentiable op.
// ---------------------------------------------------------------------------

using UnaryFn = Variable (*)(const Variable&);

struct UnaryCase {
  const char* name;
  UnaryFn fn;
  double lo;
  double hi;
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifference) {
  const UnaryCase& c = GetParam();
  const Tensor input = RandomTensor({2, 3}, 42, c.lo, c.hi);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        return ag::SumAll(GetParam().fn(v[0]));
      },
      {input}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << c.name << ": " << result.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllUnary, UnaryGradTest,
    ::testing::Values(UnaryCase{"exp", &ag::Exp, -1.0, 1.0},
                      UnaryCase{"log", &ag::Log, 0.5, 2.0},
                      UnaryCase{"sqrt", &ag::Sqrt, 0.5, 2.0},
                      UnaryCase{"abs", &ag::Abs, 0.2, 1.0},
                      UnaryCase{"tanh", &ag::Tanh, -1.0, 1.0},
                      UnaryCase{"sigmoid", &ag::Sigmoid, -1.0, 1.0},
                      UnaryCase{"relu_pos", &ag::Relu, 0.2, 1.0},
                      UnaryCase{"relu_neg", &ag::Relu, -1.0, -0.2},
                      UnaryCase{"neg", &ag::Neg, -1.0, 1.0}),
    [](const auto& info) { return std::string(info.param.name); });

using BinaryFn = Variable (*)(const Variable&, const Variable&);

struct BinaryCase {
  const char* name;
  BinaryFn fn;
  Shape shape_a;
  Shape shape_b;
};

class BinaryGradTest : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(BinaryGradTest, MatchesFiniteDifference) {
  const BinaryCase& c = GetParam();
  const Tensor a = RandomTensor(c.shape_a, 1, 0.5, 1.5);
  const Tensor b = RandomTensor(c.shape_b, 2, 0.5, 1.5);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        return ag::SumAll(GetParam().fn(v[0], v[1]));
      },
      {a, b}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << c.name << ": " << result.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllBinary, BinaryGradTest,
    ::testing::Values(
        BinaryCase{"add_same", &ag::Add, {2, 3}, {2, 3}},
        BinaryCase{"add_broadcast", &ag::Add, {2, 3}, {3}},
        BinaryCase{"add_broadcast_col", &ag::Add, {2, 3}, {2, 1}},
        BinaryCase{"sub_same", &ag::Sub, {2, 3}, {2, 3}},
        BinaryCase{"sub_broadcast", &ag::Sub, {3}, {2, 3}},
        BinaryCase{"mul_same", &ag::Mul, {2, 3}, {2, 3}},
        BinaryCase{"mul_broadcast", &ag::Mul, {2, 3}, {1, 3}},
        BinaryCase{"div_same", &ag::Div, {2, 3}, {2, 3}},
        BinaryCase{"div_broadcast", &ag::Div, {2, 3}, {3}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(GradCheck, MatMul2d) {
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::MatMul(v[0], v[1]));
      },
      {RandomTensor({3, 4}, 3), RandomTensor({4, 2}, 4)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(GradCheck, MatMulBatchedBroadcast) {
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::MatMul(v[0], v[1]));
      },
      {RandomTensor({2, 3, 4}, 5), RandomTensor({4, 2}, 6)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(GradCheck, MatMulLeftBroadcast) {
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& v) {
        return ag::SumAll(ag::MatMul(v[0], v[1]));
      },
      {RandomTensor({3, 3}, 7), RandomTensor({2, 2, 3, 2}, 8)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

class ReduceGradTest
    : public ::testing::TestWithParam<std::tuple<int64_t, bool>> {};

TEST_P(ReduceGradTest, SumAndMean) {
  const auto [axis, keepdim] = GetParam();
  for (const bool use_mean : {false, true}) {
    GradCheckResult result = CheckGradients(
        [axis, keepdim, use_mean](const std::vector<Variable>& v) {
          // Square first so the reduction gradient is input-dependent.
          const Variable squared = ag::Mul(v[0], v[0]);
          const Variable reduced = use_mean ? ag::Mean(squared, axis, keepdim)
                                            : ag::Sum(squared, axis, keepdim);
          return ag::SumAll(ag::Mul(reduced, reduced));
        },
        {RandomTensor({2, 3, 4}, 9)}, 1e-6, 1e-5);
    EXPECT_TRUE(result.ok) << result.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AxesAndKeepdim, ReduceGradTest,
    ::testing::Combine(::testing::Values<int64_t>(0, 1, 2),
                       ::testing::Bool()));

TEST(GradCheck, SoftmaxAlongEachAxis) {
  for (int64_t axis = 0; axis < 2; ++axis) {
    GradCheckResult result = CheckGradients(
        [axis](const std::vector<Variable>& v) {
          const Variable s = ag::Softmax(v[0], axis);
          return ag::SumAll(ag::Mul(s, s));
        },
        {RandomTensor({3, 4}, 10)}, 1e-6, 1e-5);
    EXPECT_TRUE(result.ok) << "axis " << axis << ": " << result.message;
  }
}

TEST(GradCheck, SoftmaxWithTemperature) {
  for (const double tau : {0.5, 1.0, 5.0}) {
    GradCheckResult result = CheckGradients(
        [tau](const std::vector<Variable>& v) {
          const Variable s = ag::SoftmaxWithTemperature(v[0], 0, tau);
          return ag::SumAll(ag::Mul(s, s));
        },
        {RandomTensor({5}, 11)}, 1e-6, 1e-5);
    EXPECT_TRUE(result.ok) << "tau " << tau << ": " << result.message;
  }
}

TEST(SoftmaxTemperature, LowTauApproachesOneHot) {
  Variable logits(Tensor::FromVector({3}, {1.0, 2.0, 0.5}), false);
  const Tensor sharp =
      ag::SoftmaxWithTemperature(logits, 0, 0.01).value();
  EXPECT_GT(sharp.data()[1], 0.999);
  const Tensor smooth =
      ag::SoftmaxWithTemperature(logits, 0, 100.0).value();
  EXPECT_NEAR(smooth.data()[0], 1.0 / 3.0, 1e-2);
}

TEST(GradCheck, ReshapePermuteSliceConcatPad) {
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable x = ag::Reshape(v[0], {3, 4});
        x = ag::Permute(x, {1, 0});                  // [4, 3]
        Variable left = ag::Slice(x, 0, 0, 2);       // [2, 3]
        Variable right = ag::Slice(x, 0, 2, 2);      // [2, 3]
        Variable cat = ag::Concat({left, right}, 1); // [2, 6]
        Variable padded = ag::Pad(cat, 0, 1, 1);     // [4, 6]
        return ag::SumAll(ag::Mul(padded, padded));
      },
      {RandomTensor({12}, 12)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(GradCheck, Losses) {
  const Tensor pred = RandomTensor({2, 3}, 14);
  const Tensor target = RandomTensor({2, 3}, 15);
  for (const int which : {0, 1}) {
    GradCheckResult result = CheckGradients(
        [which](const std::vector<Variable>& v) {
          return which == 0 ? ag::MseLoss(v[0], v[1]) : ag::L1Loss(v[0], v[1]);
        },
        {pred, target}, 1e-6, 1e-4);
    EXPECT_TRUE(result.ok) << "loss " << which << ": " << result.message;
  }
}

TEST(Losses, KnownValues) {
  Variable p(Tensor::FromVector({2}, {1.0, 3.0}), false);
  Variable y(Tensor::FromVector({2}, {0.0, 1.0}), false);
  EXPECT_NEAR(ag::L1Loss(p, y).value().item(), 1.5, 1e-12);
  EXPECT_NEAR(ag::MseLoss(p, y).value().item(), 2.5, 1e-12);
}

TEST(GradCheck, DeepComposedExpression) {
  GradCheckResult result = CheckGradients(
      [](const std::vector<Variable>& v) {
        Variable h = ag::Tanh(ag::MatMul(v[0], v[1]));
        h = ag::Mul(h, ag::Sigmoid(h));
        h = ag::Softmax(h, 1);
        return ag::MeanAll(ag::Mul(h, h));
      },
      {RandomTensor({3, 4}, 16), RandomTensor({4, 5}, 17)}, 1e-6, 1e-5);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(BackwardDeath, NonScalarNeedsSeed) {
  Variable a(Tensor::Ones({2}), true);
  Variable b = ag::MulScalar(a, 2.0);
  EXPECT_DEATH(b.Backward(), "");
  b.Backward(Tensor::Ones({2}));  // Seeded form works.
  EXPECT_DOUBLE_EQ(a.grad().data()[0], 2.0);
}

// ---------------------------------------------------------------------------
// Label-keyed grad-check sweep.
//
// Every op label registered in autograd/variable_ops.cc must have a
// finite-difference entry in the table below, and every table entry must
// correspond to a registered label. A new labeled op therefore cannot ship
// without a gradient check, and a renamed label cannot silently orphan its
// entry.
// ---------------------------------------------------------------------------

struct LabeledOpCase {
  std::string label;
  // Builds the op under test from the sweep inputs. The returned Variable
  // is the op's direct output (its tape node carries `label`).
  std::function<Variable(const std::vector<Variable>&)> build;
  std::vector<Tensor> inputs;
};

// Weights a tensor with a fixed pseudo-random constant before reducing to
// a scalar, so linear ops (reshape, permute, slice, ...) get a non-uniform
// upstream gradient — a plain SumAll would send gradient 1 to every
// coordinate and could not catch routing mistakes.
Variable WeightedSum(const Variable& v, uint64_t seed) {
  return ag::SumAll(ag::Mul(v, ag::Constant(RandomTensor(v.shape(), seed,
                                                         0.5, 1.5))));
}

std::vector<LabeledOpCase> LabeledOpCases() {
  // Inputs stay away from non-smooth points: denominators and sqrt/log
  // arguments in [0.5, 1.5], abs/relu inputs bounded away from 0.
  const Tensor positive = RandomTensor({2, 3}, 101, 0.5, 1.5);
  const Tensor generic = RandomTensor({2, 3}, 102);
  const Tensor generic_b = RandomTensor({2, 3}, 103);
  const Tensor away_from_zero = RandomTensor({2, 3}, 104, 0.25, 1.0);
  std::vector<LabeledOpCase> cases;
  const auto add = [&](const std::string& label,
                       std::function<Variable(const std::vector<Variable>&)>
                           build,
                       std::vector<Tensor> inputs) {
    cases.push_back({label, std::move(build), std::move(inputs)});
  };

  add("add", [](const auto& v) { return ag::Add(v[0], v[1]); },
      {generic, generic_b});
  add("sub", [](const auto& v) { return ag::Sub(v[0], v[1]); },
      {generic, generic_b});
  add("mul", [](const auto& v) { return ag::Mul(v[0], v[1]); },
      {generic, generic_b});
  add("div", [](const auto& v) { return ag::Div(v[0], v[1]); },
      {generic, positive});
  add("add_scalar", [](const auto& v) { return ag::AddScalar(v[0], 0.7); },
      {generic});
  add("mul_scalar", [](const auto& v) { return ag::MulScalar(v[0], -1.3); },
      {generic});
  add("exp", [](const auto& v) { return ag::Exp(v[0]); }, {generic});
  add("log", [](const auto& v) { return ag::Log(v[0]); }, {positive});
  add("sqrt", [](const auto& v) { return ag::Sqrt(v[0]); }, {positive});
  add("abs", [](const auto& v) { return ag::Abs(v[0]); }, {away_from_zero});
  add("tanh", [](const auto& v) { return ag::Tanh(v[0]); }, {generic});
  add("sigmoid", [](const auto& v) { return ag::Sigmoid(v[0]); }, {generic});
  add("relu", [](const auto& v) { return ag::Relu(v[0]); },
      {away_from_zero});
  add("pow_scalar", [](const auto& v) { return ag::PowScalar(v[0], 2.5); },
      {positive});
  add("matmul", [](const auto& v) { return ag::MatMul(v[0], v[1]); },
      {RandomTensor({2, 3}, 105), RandomTensor({3, 4}, 106)});
  add("sum",
      [](const auto& v) { return ag::Sum(v[0], /*axis=*/1,
                                         /*keepdim=*/false); },
      {generic});
  add("sum_all", [](const auto& v) { return ag::SumAll(v[0]); }, {generic});
  add("softmax", [](const auto& v) { return ag::Softmax(v[0], 1); },
      {generic});
  add("reshape",
      [](const auto& v) { return ag::Reshape(v[0], Shape{3, 2}); },
      {generic});
  add("permute",
      [](const auto& v) { return ag::Permute(v[0], {2, 0, 1}); },
      {RandomTensor({2, 3, 4}, 107)});
  add("concat",
      [](const auto& v) { return ag::Concat({v[0], v[1]}, /*axis=*/0); },
      {generic, generic_b});
  add("slice",
      [](const auto& v) {
        return ag::Slice(v[0], /*axis=*/1, /*start=*/1, /*length=*/2);
      },
      {generic});
  add("pad",
      [](const auto& v) {
        return ag::Pad(v[0], /*axis=*/1, /*before=*/1, /*after=*/2);
      },
      {generic});
  return cases;
}

TEST(GradCheckSweep, EveryRegisteredLabelHasACheckedEntry) {
  const std::vector<std::string>& labels = ag::RegisteredOpLabels();
  ASSERT_FALSE(labels.empty());
  // Labels are unique.
  std::set<std::string> label_set(labels.begin(), labels.end());
  ASSERT_EQ(label_set.size(), labels.size());

  std::map<std::string, const LabeledOpCase*> table;
  const std::vector<LabeledOpCase> cases = LabeledOpCases();
  for (const LabeledOpCase& entry : cases) {
    ASSERT_TRUE(table.emplace(entry.label, &entry).second)
        << "duplicate sweep entry for label '" << entry.label << "'";
    // Reverse direction: an entry whose label is not registered is stale.
    EXPECT_TRUE(label_set.count(entry.label))
        << "sweep entry '" << entry.label
        << "' does not match any registered op label";
  }
  for (const std::string& label : labels) {
    EXPECT_TRUE(table.count(label))
        << "registered op label '" << label
        << "' has no grad-check entry — add one to LabeledOpCases()";
  }
}

TEST(GradCheckSweep, AllLabeledOpsPassFiniteDifferences) {
  for (const LabeledOpCase& entry : LabeledOpCases()) {
    SCOPED_TRACE("op label: " + entry.label);

    // The built node must actually carry the label it claims to cover.
    std::vector<Variable> probe;
    probe.reserve(entry.inputs.size());
    for (const Tensor& input : entry.inputs) {
      probe.emplace_back(input.Clone(), /*requires_grad=*/true);
    }
    const Variable built = entry.build(probe);
    ASSERT_NE(built.node(), nullptr);
    ASSERT_NE(built.node()->op, nullptr);
    EXPECT_EQ(std::string(built.node()->op), entry.label);

    const GradCheckResult result = CheckGradients(
        [&](const std::vector<Variable>& v) {
          return WeightedSum(entry.build(v), /*seed=*/991);
        },
        entry.inputs, 1e-6, 1e-5);
    EXPECT_TRUE(result.ok) << result.message;
  }
}

}  // namespace
}  // namespace autocts
