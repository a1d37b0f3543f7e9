#include <gtest/gtest.h>

#include <cstring>

#include "common/file_io.h"
#include "core/derived_model.h"
#include "core/genotype.h"
#include "core/micro_dag.h"
#include "core/operator_set.h"
#include "core/supernet.h"
#include "graph/adjacency.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

using core::BlockGenotype;
using core::EdgeGene;
using core::Genotype;
using core::MicroDagCell;
using core::OperatorSet;
using core::PairIndex;
using core::Supernet;
using core::SupernetConfig;

Genotype ExampleGenotype() {
  Genotype genotype;
  genotype.nodes_per_block = 4;
  BlockGenotype b0;
  b0.edges = {{0, 1, "gdcc"}, {1, 2, "dgcn"}, {0, 2, "identity"},
              {2, 3, "inf_s"}, {0, 3, "inf_t"}};
  BlockGenotype b1;
  b1.edges = {{0, 1, "dgcn"}, {1, 2, "gdcc"}, {0, 2, "gdcc"},
              {2, 3, "dgcn"}, {1, 3, "identity"}};
  genotype.blocks = {b0, b1, b0};
  genotype.block_inputs = {0, 1, 1};
  return genotype;
}

models::ModelContext SmallModelContext() {
  models::ModelContext context;
  context.num_nodes = 4;
  context.in_features = 2;
  context.input_length = 8;
  context.output_length = 3;
  context.hidden_dim = 8;
  context.seed = 5;
  Rng rng(9);
  const Tensor positions = graph::RandomPositions(4, &rng);
  context.adjacency = graph::DistanceGaussianAdjacency(positions, 0.5, 0.1);
  return context;
}

// ---------------------------------------------------------------------------
// Operator sets.
// ---------------------------------------------------------------------------

TEST(OperatorSets, SizesMatchThePaper) {
  EXPECT_EQ(core::CompactOperatorSet().size(), 6);  // Section 3.2.3.
  EXPECT_EQ(core::FullOperatorSet().size(), 12);    // All of Table 1 + 2.
  EXPECT_EQ(core::AutoStgOperatorSet().size(), 4);  // conv1d + dgcn + 2.
}

TEST(OperatorSets, CompactSetExcludesRnnFamily) {
  // Principle 1 disregards the RNN family (Figure 6 discussion).
  const OperatorSet compact = core::CompactOperatorSet();
  for (const std::string& op : compact.op_names) {
    EXPECT_NE(op, "lstm");
    EXPECT_NE(op, "gru");
  }
  // Principle 2 keeps the strongest variant per family.
  const auto& names = compact.op_names;
  auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("gdcc"));
  EXPECT_TRUE(has("inf_t"));
  EXPECT_TRUE(has("dgcn"));
  EXPECT_TRUE(has("inf_s"));
  EXPECT_FALSE(has("conv1d"));
  EXPECT_FALSE(has("cheb_gcn"));
  EXPECT_FALSE(has("trans_t"));
}

TEST(OperatorSets, ParametricClassification) {
  EXPECT_FALSE(core::IsParametricOp("zero"));
  EXPECT_FALSE(core::IsParametricOp("identity"));
  EXPECT_TRUE(core::IsParametricOp("gdcc"));
  EXPECT_TRUE(core::IsParametricOp("dgcn"));
}

// ---------------------------------------------------------------------------
// Genotype structure and serialization.
// ---------------------------------------------------------------------------

TEST(Genotype, PairIndexingIsDense) {
  EXPECT_EQ(PairIndex(0, 1), 0);
  EXPECT_EQ(PairIndex(0, 2), 1);
  EXPECT_EQ(PairIndex(1, 2), 2);
  EXPECT_EQ(PairIndex(0, 3), 3);
  EXPECT_EQ(core::NumPairs(5), 10);
  // Dense and unique across all pairs.
  std::vector<bool> seen(core::NumPairs(6), false);
  for (int64_t j = 1; j < 6; ++j) {
    for (int64_t i = 0; i < j; ++i) {
      const int64_t p = PairIndex(i, j);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, core::NumPairs(6));
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST(Genotype, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(ExampleGenotype().Validate().ok());
}

TEST(Genotype, ValidateRejectsMalformed) {
  Genotype g = ExampleGenotype();
  g.blocks[0].edges[0] = {2, 1, "gdcc"};  // from >= to.
  EXPECT_FALSE(g.Validate().ok());

  g = ExampleGenotype();
  g.blocks[0].edges[0].to = 9;  // Out of range.
  EXPECT_FALSE(g.Validate().ok());

  g = ExampleGenotype();
  g.block_inputs[1] = 5;  // References a later block.
  EXPECT_FALSE(g.Validate().ok());

  g = ExampleGenotype();
  g.blocks[0].edges[0].op = "";  // Empty operator.
  EXPECT_FALSE(g.Validate().ok());
}

// A derived model would abort on each of these, in its constructor or its
// forward, so a genotype file, candidate set or artifact holding one must
// be refused with a Status.
void ExpectRefused(const Genotype& g, const std::string& reason) {
  const Status status = g.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(reason), std::string::npos)
      << status.ToString();
  EXPECT_EQ(Genotype::FromText(g.ToText()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Genotype, ValidateRejectsUnknownOperator) {
  Genotype g = ExampleGenotype();
  g.blocks[1].edges[2].op = "bogus_op";
  ExpectRefused(g, "unknown operator: bogus_op");
}

TEST(Genotype, ValidateRejectsNodeWithoutIncomingEdge) {
  Genotype g = ExampleGenotype();
  // Three edges for three nodes, but none of them feeds node 2.
  g.blocks[0].edges = {{0, 1, "gdcc"}, {1, 3, "dgcn"}, {0, 3, "inf_t"}};
  ExpectRefused(g, "node 2 has no incoming edge");
}

TEST(Genotype, ValidateRejectsMoreNodesThanEdgesCanFeed) {
  // Checked against the edge count before anything is sized by M.
  Genotype g = ExampleGenotype();
  g.nodes_per_block = 100000000;
  ExpectRefused(g, "fewer edges than");
}

TEST(Genotype, TextRoundTripPreservesEverything) {
  const Genotype original = ExampleGenotype();
  const std::string text = original.ToText();
  StatusOr<Genotype> parsed = Genotype::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), original);
}

#ifndef AUTOCTS_TESTDATA_DIR
#error "AUTOCTS_TESTDATA_DIR must be defined by the build"
#endif

// Golden-file contract: the genotype text format is persisted by search
// checkpoints and candidate sets, so any drift must be deliberate. If this
// test fails because the format changed on purpose, add a new
// genotype_golden_v<N>.txt fixture (do not edit v1 in place) and bump the
// readers that persist genotypes.
TEST(Genotype, GoldenFileRoundTripGuardsTextFormat) {
  const std::string path =
      std::string(AUTOCTS_TESTDATA_DIR) + "/genotype_golden_v1.txt";
  StatusOr<std::string> golden = ReadFileToString(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  // Serializing today's ExampleGenotype reproduces the checked-in bytes.
  EXPECT_EQ(ExampleGenotype().ToText(), golden.value())
      << "genotype text format drifted from the v1 golden fixture; "
         "add a new versioned fixture instead of editing v1";

  // And the checked-in bytes still parse to the same structure.
  StatusOr<Genotype> parsed = Genotype::FromText(golden.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), ExampleGenotype());
}

TEST(Genotype, RandomizedRoundTripProperty) {
  // Property: any structurally valid genotype survives serialization.
  Rng rng(13);
  const std::vector<std::string> ops = core::CompactOperatorSet().op_names;
  for (int trial = 0; trial < 25; ++trial) {
    Genotype g;
    g.nodes_per_block = 3 + rng.UniformInt(4);  // 3..6
    const int64_t blocks = 1 + rng.UniformInt(5);
    for (int64_t b = 0; b < blocks; ++b) {
      BlockGenotype block;
      for (int64_t j = 1; j < g.nodes_per_block; ++j) {
        block.edges.push_back(
            {j - 1, j, ops[1 + rng.UniformInt(ops.size() - 1)]});
        if (j >= 2) {
          block.edges.push_back(
              {rng.UniformInt(j - 1), j,
               ops[1 + rng.UniformInt(ops.size() - 1)]});
        }
      }
      g.blocks.push_back(block);
      g.block_inputs.push_back(rng.UniformInt(b + 1));
    }
    ASSERT_TRUE(g.Validate().ok());
    StatusOr<Genotype> parsed = Genotype::FromText(g.ToText());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), g) << "trial " << trial;
  }
}

TEST(Genotype, FromTextRejectsGarbage) {
  EXPECT_FALSE(Genotype::FromText("not a genotype").ok());
  EXPECT_FALSE(Genotype::FromText("nodes_per_block = 4\n").ok());
  // Edge referencing a block that does not exist.
  EXPECT_FALSE(Genotype::FromText("nodes_per_block = 4\nnum_blocks = 1\n"
                                  "block_input = 0\nedge = 3 0 1 gdcc\n")
                   .ok());
  // A block_input that is not an integer, in an otherwise valid genotype.
  EXPECT_EQ(Genotype::FromText("nodes_per_block = 2\nnum_blocks = 2\n"
                               "block_input = 0\nedge = 0 0 1 gdcc\n"
                               "block_input = junk\nedge = 1 0 1 gdcc\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// Edge records read through the one token grammar, which refuses what no
// writer writes: trailing tokens after the operator, a '+' sign, and a
// number glued to the operator ("1gdcc", which `operator>>` reads as 1 and
// "gdcc").
TEST(Genotype, EdgeRecordsRefuseWhatNoWriterWrites) {
  const std::string valid =
      "nodes_per_block = 2\nnum_blocks = 1\nblock_input = 0\n";
  ASSERT_TRUE(Genotype::FromText(valid + "edge = 0 0 1 gdcc\n").ok());
  for (const std::string edge :
       {"edge = 0 0 1 gdcc extra\n", "edge = 0 +0 1 gdcc\n",
        "edge = 0 0 1gdcc\n", "edge = 0 0 1\n"}) {
    EXPECT_EQ(Genotype::FromText(valid + edge).status().code(),
              StatusCode::kInvalidArgument)
        << edge;
  }
}

TEST(Genotype, HistogramAndPrettyString) {
  const Genotype g = ExampleGenotype();
  const auto histogram = g.OperatorHistogram();
  int64_t total = 0;
  for (const auto& [op, count] : histogram) total += count;
  EXPECT_EQ(total, 15);  // 3 blocks x 5 edges.
  const std::string pretty = g.ToPrettyString();
  EXPECT_NE(pretty.find("block 1"), std::string::npos);
  EXPECT_NE(pretty.find("gdcc"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Micro-DAG cell behaviour.
// ---------------------------------------------------------------------------

TEST(MicroDag, ForwardPreservesShapeAcrossConfigurations) {
  Rng rng(1);
  ops::OpContext op_context;
  op_context.channels = 8;
  op_context.num_nodes = 4;
  op_context.rng = &rng;
  Rng graph_rng(2);
  const Tensor positions = graph::RandomPositions(4, &graph_rng);
  op_context.adjacency =
      graph::DistanceGaussianAdjacency(positions, 0.5, 0.1);
  for (const int64_t m : {3, 5}) {
    for (const int64_t partial : {1, 4}) {
      MicroDagCell cell(m, core::CompactOperatorSet(), op_context, partial,
                        &rng);
      Variable x(Tensor::Rand({2, 6, 4, 8}, &rng, -1.0, 1.0), false);
      EXPECT_EQ(cell.Forward(x, 1.0).shape(), x.shape())
          << "M=" << m << " partial=" << partial;
    }
  }
}

TEST(MicroDag, AlphaAndBetaWeightsAreDistributions) {
  Rng rng(3);
  ops::OpContext op_context;
  op_context.channels = 4;
  op_context.num_nodes = 3;
  op_context.rng = &rng;
  op_context.adaptive = std::make_shared<graph::AdaptiveAdjacency>(3, 4, &rng);
  MicroDagCell cell(4, core::CompactOperatorSet(), op_context, 1, &rng);
  for (int64_t p = 0; p < core::NumPairs(4); ++p) {
    const Tensor w = cell.AlphaWeights(p);
    EXPECT_NEAR(SumAll(w), 1.0, 1e-9);
    EXPECT_GE(MinAll(w), 0.0);
  }
  for (int64_t j = 1; j < 4; ++j) {
    const Tensor w = cell.BetaWeights(j);
    EXPECT_EQ(w.size(), j);
    EXPECT_NEAR(SumAll(w), 1.0, 1e-9);
  }
  // Arch parameters: one alpha matrix + M-1 betas, none in Parameters().
  EXPECT_EQ(cell.ArchParameters().size(), 1u + 3u);
  for (const Variable& arch : cell.ArchParameters()) {
    for (const Variable& weight : cell.Parameters()) {
      EXPECT_NE(arch.node().get(), weight.node().get());
    }
  }
}

// ---------------------------------------------------------------------------
// Supernet derivation rules (Eq. 7 + Section 3.2.2 derivation protocol).
// ---------------------------------------------------------------------------

TEST(Supernet, DeriveRespectsStructuralRules) {
  SupernetConfig config;
  config.micro_nodes = 5;
  config.macro_blocks = 4;
  config.hidden_dim = 8;
  Supernet supernet(config, SmallModelContext());
  const Genotype genotype = supernet.Derive();
  ASSERT_TRUE(genotype.Validate().ok());
  EXPECT_EQ(genotype.num_blocks(), 4);
  EXPECT_EQ(genotype.nodes_per_block, 5);
  for (const BlockGenotype& block : genotype.blocks) {
    for (int64_t j = 1; j < 5; ++j) {
      int64_t incoming = 0;
      bool has_predecessor_edge = false;
      for (const EdgeGene& edge : block.edges) {
        if (edge.to != j) continue;
        ++incoming;
        if (edge.from == j - 1) has_predecessor_edge = true;
        EXPECT_NE(edge.op, "zero");  // Zero excluded at derivation.
      }
      // 2 incoming edges per node (1 for node 1 which has one candidate).
      EXPECT_EQ(incoming, j == 1 ? 1 : 2);
      EXPECT_TRUE(has_predecessor_edge);  // h_{j-1} -> h_j always kept.
    }
  }
}

TEST(Supernet, EdgesPerNodeThreeKeepsMore) {
  SupernetConfig config;
  config.micro_nodes = 5;
  config.macro_blocks = 2;
  config.hidden_dim = 8;
  config.edges_per_node = 3;
  Supernet supernet(config, SmallModelContext());
  const Genotype genotype = supernet.Derive();
  for (const BlockGenotype& block : genotype.blocks) {
    int64_t incoming_h4 = 0;
    for (const EdgeGene& edge : block.edges) {
      if (edge.to == 4) ++incoming_h4;
    }
    EXPECT_EQ(incoming_h4, 3);
  }
}

TEST(Supernet, ForwardShapeAndArchParameterCount) {
  SupernetConfig config;
  config.micro_nodes = 3;
  config.macro_blocks = 2;
  config.hidden_dim = 8;
  Supernet supernet(config, SmallModelContext());
  Rng rng(4);
  Variable x(Tensor::Rand({2, 8, 4, 2}, &rng, -1.0, 1.0), false);
  EXPECT_EQ(supernet.Forward(x).shape(), (Shape{2, 3, 4, 1}));
  // Arch params: per cell (alpha + M-1 betas) = 3, plus B gammas.
  EXPECT_EQ(supernet.ArchParameters().size(), 2u * 3u + 2u);
}

TEST(Supernet, TemperatureChangesForwardOutput) {
  SupernetConfig config;
  config.micro_nodes = 3;
  config.macro_blocks = 1;
  config.hidden_dim = 8;
  Supernet supernet(config, SmallModelContext());
  supernet.SetTraining(false);
  // The output head's last layer is zero-initialized (pure persistence at
  // init), which would hide the backbone; give it weight so the
  // temperature's effect on the mixed edges reaches the output.
  for (auto& [name, parameter] : supernet.NamedParameters()) {
    if (name.find("head.fc2") != std::string::npos) {
      parameter.mutable_value().Fill(0.5);
    }
  }
  Rng rng(5);
  Variable x(Tensor::Rand({1, 8, 4, 2}, &rng, -1.0, 1.0), false);
  supernet.SetTemperature(5.0);
  const Tensor smooth = supernet.Forward(x).value();
  supernet.SetTemperature(0.01);
  const Tensor sharp = supernet.Forward(x).value();
  EXPECT_FALSE(smooth.AllClose(sharp, 1e-9));
}

// ---------------------------------------------------------------------------
// Derived model.
// ---------------------------------------------------------------------------

TEST(DerivedModel, BuildsFromGenotypeAndForwardMatchesContract) {
  core::DerivedModel model(ExampleGenotype(), SmallModelContext());
  Rng rng(6);
  Variable x(Tensor::Rand({2, 8, 4, 2}, &rng, -1.0, 1.0), false);
  EXPECT_EQ(model.Forward(x).shape(), (Shape{2, 3, 4, 1}));
  EXPECT_GT(model.NumParameters(), 100);
}

TEST(DerivedModel, SupernetDerivedGenotypeIsInstantiable) {
  SupernetConfig config;
  config.micro_nodes = 5;
  config.macro_blocks = 3;
  config.hidden_dim = 8;
  Supernet supernet(config, SmallModelContext());
  core::DerivedModel model(supernet.Derive(), SmallModelContext());
  Rng rng(7);
  Variable x(Tensor::Rand({1, 8, 4, 2}, &rng, -1.0, 1.0), false);
  EXPECT_EQ(model.Forward(x).shape(), (Shape{1, 3, 4, 1}));
}

TEST(DerivedModel, GradientsReachAllParameters) {
  core::DerivedModel model(ExampleGenotype(), SmallModelContext());
  Rng rng(8);
  Variable x(Tensor::Rand({1, 8, 4, 2}, &rng, -1.0, 1.0), false);
  Variable loss = ag::SumAll(ag::Mul(model.Forward(x), model.Forward(x)));
  loss.Backward();
  for (const auto& [name, parameter] : model.NamedParameters()) {
    EXPECT_TRUE(parameter.has_grad()) << name;
  }
}

TEST(DerivedModel, NoGradForwardIsByteIdenticalToTapedForward) {
  core::DerivedModel model(ExampleGenotype(), SmallModelContext());
  model.SetTraining(false);
  // Give the zero-initialized head weight so the whole backbone, including
  // the probsparse attention edges, reaches the output.
  for (auto& [name, parameter] : model.NamedParameters()) {
    if (name.find("head.fc2") != std::string::npos) {
      parameter.mutable_value().Fill(0.5);
    }
  }
  Rng rng(10);
  const Variable x(Tensor::Rand({2, 8, 4, 2}, &rng, -1.0, 1.0), false);
  const Variable taped = model.Forward(x);
  ASSERT_TRUE(taped.requires_grad());
  Tensor untaped;
  {
    const NoGradScope no_grad;
    const Variable forward = model.Forward(x);
    EXPECT_FALSE(forward.requires_grad());
    untaped = forward.value();
  }
  ASSERT_EQ(untaped.shape(), taped.shape());
  EXPECT_EQ(std::memcmp(untaped.data(), taped.value().data(),
                        static_cast<size_t>(untaped.size()) * sizeof(double)),
            0);
}

TEST(DerivedModel, InvalidGenotypeDies) {
  Genotype bad = ExampleGenotype();
  bad.block_inputs[2] = 7;
  EXPECT_DEATH(core::DerivedModel(bad, SmallModelContext()), "");
}

}  // namespace
}  // namespace autocts
