#include "core/cost_model.h"

#include "ops/op_registry.h"

namespace autocts::core {
namespace {

// Relative per-application forward cost of each built-in operator,
// normalized to GDCC = 1. Derived from the dominant term of each
// operator's arithmetic on a [B, T, N, D] input:
//   conv ~ K*D^2, gdcc ~ 2*K*D^2, rnn ~ T-sequential 4*D^2 (and
//   unparallelizable, so weighted up), attention ~ L*D + 4*D^2 projections,
//   dgcn ~ 2*(K+1)*D^2 + propagation, cheb ~ K*D^2 + propagation.
// A human-designed ST-block (ops/st_blocks.h) costs the sum of the Table-1
// operators it is built from, by the same rule:
//   stgcn_block = 2 gated temporal convs (D -> 2D, GLU: gdcc's 2*K*D^2
//                 each) + cheb_gcn           = 1.0 + 1.0 + 0.9 = 2.9
//   gwn_block   = gdcc + dgcn                = 1.0 + 1.4       = 2.4
//   dcgru_block = gru whose gates are diffusion convs = gru + dgcn
//                                            = 2.0 + 1.4       = 3.4
//   mtgnn_block = gated dilated-inception conv (filter and gate, gdcc's
//                 two convs) + mix-hop diffusion conv = gdcc + dgcn
//                                            = 1.0 + 1.4       = 2.4
struct CostEntry {
  const char* name;
  double cost;
};

constexpr CostEntry kCosts[] = {
    {"zero", 0.0},          {"identity", 0.0},  {"conv1d", 0.5},
    {"gdcc", 1.0},          {"lstm", 2.5},      {"gru", 2.0},
    {"trans_t", 1.6},       {"inf_t", 1.2},     {"cheb_gcn", 0.9},
    {"dgcn", 1.4},          {"trans_s", 1.5},   {"inf_s", 1.1},
    {"stgcn_block", 2.9},   {"gwn_block", 2.4}, {"dcgru_block", 3.4},
    {"mtgnn_block", 2.4},
};

}  // namespace

double OperatorCost(const std::string& op_name, double default_cost) {
  for (const CostEntry& entry : kCosts) {
    if (op_name == entry.name) return entry.cost;
  }
  AUTOCTS_CHECK(ops::OpRegistry::Global().Contains(op_name))
      << "unknown operator: " << op_name;
  return default_cost;
}

double GenotypeCost(const Genotype& genotype) {
  double total = 0.0;
  for (const BlockGenotype& block : genotype.blocks) {
    for (const EdgeGene& edge : block.edges) {
      total += OperatorCost(edge.op);
    }
  }
  return total;
}

Variable ExpectedSupernetCost(const Supernet& supernet, double tau) {
  const OperatorSet& op_set = supernet.config().op_set;
  Tensor costs({op_set.size(), 1});
  for (int64_t o = 0; o < op_set.size(); ++o) {
    costs.data()[o] = OperatorCost(op_set.op_names[o]);
  }
  const Variable cost_column = ag::Constant(costs);

  Variable total;
  for (int64_t c = 0; c < supernet.num_cells(); ++c) {
    // softmax(alpha / tau) [pairs, |O|] x costs [|O|, 1] -> [pairs, 1].
    const Variable weights = ag::SoftmaxWithTemperature(
        supernet.cell(c).alpha_parameter(), /*axis=*/1, tau);
    const Variable cell_cost = ag::SumAll(ag::MatMul(weights, cost_column));
    total = total.defined() ? ag::Add(total, cell_cost) : cell_cost;
  }
  return total;
}

}  // namespace autocts::core
