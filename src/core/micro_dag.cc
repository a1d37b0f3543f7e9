#include "core/micro_dag.h"

#include <algorithm>

#include "tensor/tensor_ops.h"

namespace autocts::core {
namespace {

// The human-designed blocks run as published: they are whole ST-blocks,
// not the Table-1 operators the Section 4.1.4 wrapper was designed for.
bool IsHumanDesignedBlock(const std::string& op_name) {
  const std::vector<std::string> blocks = HumanDesignedBlockSet().op_names;
  return std::find(blocks.begin(), blocks.end(), op_name) != blocks.end();
}

}  // namespace

int64_t PairIndex(int64_t i, int64_t j) {
  AUTOCTS_CHECK_LT(i, j);
  return j * (j - 1) / 2 + i;
}

int64_t NumPairs(int64_t num_nodes) {
  return num_nodes * (num_nodes - 1) / 2;
}

WrappedOp::WrappedOp(const std::string& op_name, const ops::OpContext& context)
    : op_name_(op_name),
      wrapped_(IsParametricOp(op_name) && !IsHumanDesignedBlock(op_name)) {
  op_ = ops::CreateOp(op_name, context);
  RegisterModule("op", op_.get());
  if (wrapped_) {
    batch_norm_ = std::make_unique<nn::BatchNorm>(context.channels);
    RegisterModule("bn", batch_norm_.get());
  }
}

Variable WrappedOp::Forward(const Variable& x) {
  if (!wrapped_) return op_->Forward(x);
  return batch_norm_->Forward(op_->Forward(ag::Relu(x)));
}

MixedEdge::MixedEdge(const OperatorSet& op_set, const ops::OpContext& context,
                     int64_t partial_denominator)
    : channels_(context.channels) {
  AUTOCTS_CHECK_GE(partial_denominator, 1);
  active_channels_ = std::max<int64_t>(1, channels_ / partial_denominator);
  ops::OpContext partial_context = context;
  partial_context.channels = active_channels_;
  for (const std::string& op_name : op_set.op_names) {
    ops_.push_back(std::make_unique<WrappedOp>(op_name, partial_context));
    RegisterModule(op_name, ops_.back().get());
  }
}

Variable MixedEdge::Forward(const Variable& x, const Variable& op_weights) {
  AUTOCTS_CHECK_EQ(op_weights.size(), num_ops());
  const Variable active =
      active_channels_ == channels_
          ? x
          : ag::Slice(x, /*axis=*/-1, 0, active_channels_);
  Variable mixed;
  for (int64_t o = 0; o < num_ops(); ++o) {
    const Variable weight = ag::Slice(op_weights, 0, o, 1);  // [1], broadcasts
    const Variable term = ag::Mul(ops_[o]->Forward(active), weight);
    mixed = o == 0 ? term : ag::Add(mixed, term);
  }
  if (active_channels_ == channels_) return mixed;
  // Bypass the remaining channels and shuffle so subsequent layers see a
  // mix of processed and raw channels (PC-DARTS channel shuffle).
  const Variable rest =
      ag::Slice(x, /*axis=*/-1, active_channels_, channels_ - active_channels_);
  return ag::Concat({rest, mixed}, /*axis=*/-1);
}

MicroDagCell::MicroDagCell(int64_t num_nodes, const OperatorSet& op_set,
                           const ops::OpContext& context,
                           int64_t partial_denominator, Rng* rng)
    : num_nodes_(num_nodes), op_set_(op_set) {
  AUTOCTS_CHECK_GE(num_nodes, 2);
  for (int64_t j = 1; j < num_nodes_; ++j) {
    for (int64_t i = 0; i < j; ++i) {
      edges_.push_back(std::make_unique<MixedEdge>(op_set, context,
                                                   partial_denominator));
      RegisterModule(
          "edge_" + std::to_string(i) + "_" + std::to_string(j),
          edges_.back().get());
    }
  }
  // Small random init so softmax starts near-uniform but symmetry is broken.
  alpha_ = Variable(
      Tensor::Randn({NumPairs(num_nodes_), op_set_.size()}, rng, 0.0, 1e-3),
      /*requires_grad=*/true);
  for (int64_t j = 1; j < num_nodes_; ++j) {
    betas_.emplace_back(Tensor::Randn({j}, rng, 0.0, 1e-3),
                        /*requires_grad=*/true);
  }
}

Variable MicroDagCell::Forward(const Variable& input, double tau) {
  std::vector<Variable> nodes;
  nodes.push_back(input);  // h_0
  for (int64_t j = 1; j < num_nodes_; ++j) {
    const Variable beta_weights =
        ag::Softmax(betas_[j - 1], /*axis=*/0);  // [j]
    Variable h_j;
    for (int64_t i = 0; i < j; ++i) {
      const int64_t pair = PairIndex(i, j);
      const Variable alpha_row = ag::Reshape(
          ag::Slice(alpha_, 0, pair, 1), {op_set_.size()});
      const Variable op_weights =
          ag::SoftmaxWithTemperature(alpha_row, /*axis=*/0, tau);
      const Variable transform = edges_[pair]->Forward(nodes[i], op_weights);
      const Variable weight = ag::Slice(beta_weights, 0, i, 1);  // [1]
      const Variable term = ag::Mul(transform, weight);
      h_j = i == 0 ? term : ag::Add(h_j, term);
    }
    nodes.push_back(h_j);
  }
  return nodes.back();
}

std::vector<Variable> MicroDagCell::ArchParameters() const {
  std::vector<Variable> parameters;
  parameters.push_back(alpha_);
  for (const Variable& beta : betas_) parameters.push_back(beta);
  return parameters;
}

std::vector<std::pair<std::string, Variable>> MicroDagCell::NamedArchParameters()
    const {
  std::vector<std::pair<std::string, Variable>> parameters;
  parameters.emplace_back("alpha", alpha_);
  for (size_t j = 0; j < betas_.size(); ++j) {
    parameters.emplace_back("beta" + std::to_string(j + 1), betas_[j]);
  }
  return parameters;
}

Tensor MicroDagCell::AlphaWeights(int64_t pair) const {
  const Tensor row = Slice(alpha_.value(), 0, pair, 1);
  return Softmax(row.Reshape({op_set_.size()}), 0);
}

Tensor MicroDagCell::BetaWeights(int64_t node) const {
  AUTOCTS_CHECK_GE(node, 1);
  AUTOCTS_CHECK_LT(node, num_nodes_);
  return Softmax(betas_[node - 1].value(), 0);
}

}  // namespace autocts::core
