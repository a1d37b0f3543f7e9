#include <gtest/gtest.h>

#include <cmath>

#include "autograd/grad_check.h"
#include "graph/adjacency.h"
#include "ops/attention_ops.h"
#include "ops/gcn_ops.h"
#include "ops/op_registry.h"
#include "ops/rnn_ops.h"
#include "ops/simple_ops.h"
#include "ops/temporal_conv_ops.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

using ops::OpContext;
using ops::OpRegistry;

OpContext MakeContext(Rng* rng, int64_t channels = 4, int64_t nodes = 5,
                      bool with_adjacency = true) {
  OpContext context;
  context.channels = channels;
  context.num_nodes = nodes;
  context.rng = rng;
  if (with_adjacency) {
    Rng graph_rng(7);
    const Tensor positions = graph::RandomPositions(nodes, &graph_rng);
    context.adjacency =
        graph::DistanceGaussianAdjacency(positions, 0.5, 0.1);
  } else {
    context.adaptive =
        std::make_shared<graph::AdaptiveAdjacency>(nodes, 4, rng);
  }
  return context;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(OpRegistry, ContainsAllTable1Operators) {
  const std::vector<std::string> expected = {
      "zero",    "identity", "conv1d", "gdcc",    "lstm",    "gru",
      "trans_t", "inf_t",    "cheb_gcn", "dgcn",  "trans_s", "inf_s"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(OpRegistry::Global().Contains(name)) << name;
  }
}

TEST(OpRegistry, UnknownNameIsNotFound) {
  Rng rng(1);
  OpContext context = MakeContext(&rng);
  EXPECT_FALSE(OpRegistry::Global().Create("warp_drive", context).ok());
  EXPECT_DEATH(ops::CreateOp("warp_drive", context), "");
}

TEST(OpRegistry, CustomOperatorCanBeRegistered) {
  // The extensibility path of Section 3.1 (see examples/custom_operator).
  class DoubleOp : public ops::StOperator {
   public:
    Variable Forward(const Variable& x) override {
      return ag::MulScalar(x, 2.0);
    }
    std::string name() const override { return "test_double"; }
  };
  if (!OpRegistry::Global().Contains("test_double")) {
    OpRegistry::Global().Register(
        "test_double", [](const OpContext&) -> ops::StOperatorPtr {
          return std::make_unique<DoubleOp>();
        });
  }
  Rng rng(2);
  OpContext context = MakeContext(&rng);
  ops::StOperatorPtr op = ops::CreateOp("test_double", context);
  Variable x(Tensor::Ones({1, 2, 5, 4}), false);
  EXPECT_DOUBLE_EQ(op->Forward(x).value().data()[0], 2.0);
}

// ---------------------------------------------------------------------------
// Shape contract: every operator maps [B, T, N, D] -> [B, T, N, D].
// ---------------------------------------------------------------------------

class OpContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OpContractTest, PreservesShapeWithPredefinedGraph) {
  Rng rng(3);
  OpContext context = MakeContext(&rng);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), context);
  Variable x(Tensor::Rand({2, 6, 5, 4}, &rng, -1.0, 1.0), false);
  const Variable y = op->Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST_P(OpContractTest, PreservesShapeWithLearnedGraph) {
  Rng rng(4);
  OpContext context = MakeContext(&rng, 4, 5, /*with_adjacency=*/false);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), context);
  Variable x(Tensor::Rand({2, 6, 5, 4}, &rng, -1.0, 1.0), false);
  EXPECT_EQ(op->Forward(x).shape(), x.shape());
}

TEST_P(OpContractTest, HasParametersUnlessZeroOrIdentity) {
  Rng rng(7);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), MakeContext(&rng));
  EXPECT_EQ(op->name(), GetParam());
  const bool non_parametric = GetParam() == "zero" || GetParam() == "identity";
  EXPECT_EQ(op->NumParameters() > 0, !non_parametric);
}

TEST_P(OpContractTest, GradientsFlowToAllParameters) {
  Rng rng(5);
  OpContext context = MakeContext(&rng);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), context);
  Variable x(Tensor::Rand({1, 4, 5, 4}, &rng, -1.0, 1.0), false);
  Variable loss = ag::SumAll(ag::Mul(op->Forward(x), op->Forward(x)));
  loss.Backward();
  for (const auto& [name, parameter] : op->NamedParameters()) {
    EXPECT_TRUE(parameter.has_grad()) << GetParam() << "." << name;
  }
}

TEST_P(OpContractTest, InputGradCheck) {
  Rng rng(6);
  OpContext context = MakeContext(&rng, /*channels=*/3, /*nodes=*/3);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), context);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        const Variable y = op->Forward(v[0]);
        return ag::SumAll(ag::Mul(y, y));
      },
      {Tensor::Rand({1, 4, 3, 3}, &rng, -1.0, 1.0)}, 1e-6, 1e-4);
  EXPECT_TRUE(result.ok) << GetParam() << ": " << result.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllOperators, OpContractTest,
    ::testing::Values("zero", "identity", "conv1d", "gdcc", "lstm", "gru",
                      "trans_t", "inf_t", "cheb_gcn", "dgcn", "trans_s",
                      "inf_s", "stgcn_block", "gwn_block", "dcgru_block",
                      "mtgnn_block"),
    [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Semantic properties.
// ---------------------------------------------------------------------------

TEST(SimpleOps, ZeroOutputsZerosIdentityPassesThrough) {
  Rng rng(7);
  Tensor x = Tensor::Rand({1, 3, 2, 4}, &rng);
  ops::ZeroOp zero;
  ops::IdentityOp identity;
  EXPECT_EQ(SumAll(Abs(zero.Forward(Variable(x, false)).value())), 0.0);
  EXPECT_TRUE(identity.Forward(Variable(x, false)).value().AllClose(x));
  EXPECT_EQ(zero.NumParameters(), 0);
  EXPECT_EQ(identity.NumParameters(), 0);
}

// T-operators must be causal: outputs before t unaffected by inputs >= t.
class TemporalCausalityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TemporalCausalityTest, NoFutureLeak) {
  Rng rng(8);
  OpContext context = MakeContext(&rng, 3, 2);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), context);
  op->SetTraining(false);
  Tensor base = Tensor::Rand({1, 8, 2, 3}, &rng);
  Tensor modified = base.Clone();
  const int64_t t_changed = 5;
  for (int64_t t = t_changed; t < 8; ++t) {
    for (int64_t n = 0; n < 2; ++n) {
      for (int64_t d = 0; d < 3; ++d) modified.At({0, t, n, d}) += 5.0;
    }
  }
  const Tensor out_base = op->Forward(Variable(base, false)).value();
  const Tensor out_mod = op->Forward(Variable(modified, false)).value();
  for (int64_t t = 0; t < t_changed; ++t) {
    for (int64_t n = 0; n < 2; ++n) {
      for (int64_t d = 0; d < 3; ++d) {
        EXPECT_NEAR(out_base.At({0, t, n, d}), out_mod.At({0, t, n, d}),
                    1e-9)
            << GetParam() << " leaks at t=" << t;
      }
    }
  }
}

// Note: attention T-operators (trans_t, inf_t) intentionally attend over
// the whole window (Eq. 12/13 have no causal mask), so only the
// convolutional and recurrent families are checked here.
INSTANTIATE_TEST_SUITE_P(CausalFamilies, TemporalCausalityTest,
                         ::testing::Values("conv1d", "gdcc", "lstm", "gru"),
                         [](const auto& info) { return info.param; });

// S-operators act per timestep: the output at time t must only depend on
// inputs at time t.
class SpatialLocalityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpatialLocalityTest, PerTimestepIndependence) {
  Rng rng(9);
  OpContext context = MakeContext(&rng, 3, 4);
  ops::StOperatorPtr op = ops::CreateOp(GetParam(), context);
  op->SetTraining(false);
  Tensor base = Tensor::Rand({1, 6, 4, 3}, &rng);
  Tensor modified = base.Clone();
  const int64_t t_changed = 2;
  for (int64_t n = 0; n < 4; ++n) {
    for (int64_t d = 0; d < 3; ++d) {
      modified.At({0, t_changed, n, d}) += 5.0;
    }
  }
  const Tensor out_base = op->Forward(Variable(base, false)).value();
  const Tensor out_mod = op->Forward(Variable(modified, false)).value();
  for (int64_t t = 0; t < 6; ++t) {
    if (t == t_changed) continue;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t d = 0; d < 3; ++d) {
        EXPECT_NEAR(out_base.At({0, t, n, d}), out_mod.At({0, t, n, d}), 1e-9)
            << GetParam() << " mixes timesteps at t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SOperators, SpatialLocalityTest,
                         ::testing::Values("cheb_gcn", "dgcn", "trans_s"),
                         [](const auto& info) { return info.param; });

TEST(Dgcn, UsesGraphStructure) {
  // On a two-component graph, perturbing a node in one component must not
  // change DGCN outputs in the other component.
  Rng rng(10);
  Tensor adjacency = Tensor::Zeros({4, 4});
  adjacency.At({0, 1}) = 1.0;
  adjacency.At({1, 0}) = 1.0;  // Component {0, 1}
  adjacency.At({2, 3}) = 1.0;
  adjacency.At({3, 2}) = 1.0;  // Component {2, 3}
  OpContext context;
  context.channels = 3;
  context.num_nodes = 4;
  context.adjacency = adjacency;
  context.rng = &rng;
  ops::DgcnOp op(context);
  Tensor base = Tensor::Rand({1, 2, 4, 3}, &rng);
  Tensor modified = base.Clone();
  for (int64_t d = 0; d < 3; ++d) modified.At({0, 0, 0, d}) += 3.0;
  const Tensor out_base = op.Forward(Variable(base, false)).value();
  const Tensor out_mod = op.Forward(Variable(modified, false)).value();
  for (int64_t n : {2, 3}) {
    for (int64_t d = 0; d < 3; ++d) {
      EXPECT_NEAR(out_base.At({0, 0, n, d}), out_mod.At({0, 0, n, d}), 1e-9);
    }
  }
  // But its own component is affected.
  bool affected = false;
  for (int64_t n : {0, 1}) {
    for (int64_t d = 0; d < 3; ++d) {
      if (std::abs(out_base.At({0, 0, n, d}) - out_mod.At({0, 0, n, d})) >
          1e-9) {
        affected = true;
      }
    }
  }
  EXPECT_TRUE(affected);
}

TEST(Attention, TransformerAttendsGlobally) {
  // Unlike GCN, spatial attention connects all node pairs regardless of the
  // adjacency (Table 2: needs no predefined adjacency matrix).
  Rng rng(11);
  OpContext context = MakeContext(&rng, 3, 4);
  ops::TransformerSOp op(context);
  Tensor base = Tensor::Rand({1, 1, 4, 3}, &rng);
  Tensor modified = base.Clone();
  for (int64_t d = 0; d < 3; ++d) modified.At({0, 0, 0, d}) += 3.0;
  const Tensor out_base = op.Forward(Variable(base, false)).value();
  const Tensor out_mod = op.Forward(Variable(modified, false)).value();
  // Every node's output changes, including non-neighbours.
  for (int64_t n = 1; n < 4; ++n) {
    double diff = 0.0;
    for (int64_t d = 0; d < 3; ++d) {
      diff += std::abs(out_base.At({0, 0, n, d}) - out_mod.At({0, 0, n, d}));
    }
    EXPECT_GT(diff, 1e-9) << "node " << n;
  }
}

TEST(Attention, InformerStaysFiniteOnLongSequences) {
  Rng rng(12);
  OpContext context = MakeContext(&rng, 3, 2);
  context.attention_factor = 1.0;  // u = ceil(ln(T + 1)).
  ops::InformerTOp informer(context);
  Tensor x = Tensor::Rand({1, 24, 2, 3}, &rng);
  const Tensor out = informer.Forward(Variable(x, false)).value();
  EXPECT_EQ(out.shape(), (Shape{1, 24, 2, 3}));
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(Attention, InformerGradCheckThroughSparsePath) {
  Rng rng(13);
  OpContext context = MakeContext(&rng, 2, 2);
  context.attention_factor = 0.5;  // Force a truly sparse selection.
  ops::InformerTOp informer(context);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Variable>& v) {
        const Variable y = informer.Forward(v[0]);
        return ag::SumAll(ag::Mul(y, y));
      },
      {Tensor::Rand({1, 12, 2, 2}, &rng, -1.0, 1.0)}, 1e-6, 1e-4);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(RnnCells, LstmStateShapesAndBoundedActivations) {
  Rng rng(14);
  ops::LstmCell cell(3, 5, &rng);
  ops::LstmCell::State state;
  state.h = Variable(Tensor::Zeros({2, 5}), false);
  state.c = Variable(Tensor::Zeros({2, 5}), false);
  Variable x(Tensor::Rand({2, 3}, &rng, -2.0, 2.0), false);
  for (int step = 0; step < 20; ++step) {
    state = cell.Forward(x, state);
  }
  EXPECT_EQ(state.h.shape(), (Shape{2, 5}));
  // Hidden state of an LSTM is bounded in (-1, 1).
  EXPECT_LT(MaxAll(Abs(state.h.value())), 1.0);
}

TEST(RnnCells, GruInterpolatesBetweenStateAndCandidate) {
  Rng rng(15);
  ops::GruCell cell(2, 4, &rng);
  Variable h(Tensor::Rand({3, 4}, &rng, -0.5, 0.5), false);
  Variable x(Tensor::Rand({3, 2}, &rng, -0.5, 0.5), false);
  const Variable h_next = cell.Forward(x, h);
  EXPECT_EQ(h_next.shape(), (Shape{3, 4}));
  EXPECT_LT(MaxAll(Abs(h_next.value())), 1.0 + 1e-9);
}

TEST(OpContext, GcnWithoutAnyGraphDies) {
  Rng rng(17);
  OpContext context;
  context.channels = 2;
  context.num_nodes = 3;
  context.rng = &rng;
  EXPECT_DEATH(ops::CreateOp("dgcn", context), "");
  EXPECT_DEATH(ops::CreateOp("cheb_gcn", context), "");
}

}  // namespace
}  // namespace autocts
