#include "core/derived_model.h"

namespace autocts::core {

DerivedCell::DerivedCell(const BlockGenotype& block, int64_t num_nodes,
                         const ops::OpContext& context)
    : num_nodes_(num_nodes), edges_(block.edges) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    edge_ops_.push_back(std::make_unique<WrappedOp>(edges_[e].op, context));
    RegisterModule("edge" + std::to_string(e), edge_ops_.back().get());
  }
}

Variable DerivedCell::Forward(const Variable& input) {
  std::vector<Variable> nodes(num_nodes_);
  nodes[0] = input;
  for (int64_t j = 1; j < num_nodes_; ++j) {
    Variable h_j;
    for (size_t e = 0; e < edges_.size(); ++e) {
      if (edges_[e].to != j) continue;
      AUTOCTS_CHECK(nodes[edges_[e].from].defined());
      const Variable term = edge_ops_[e]->Forward(nodes[edges_[e].from]);
      h_j = h_j.defined() ? ag::Add(h_j, term) : term;
    }
    AUTOCTS_CHECK(h_j.defined()) << "node " << j << " has no incoming edges";
    nodes[j] = h_j;
  }
  return nodes.back();
}

DerivedModel::DerivedModel(const Genotype& genotype,
                           const models::ModelContext& model_context)
    : genotype_(genotype),
      rng_(model_context.seed),
      adaptive_(graph::AdaptiveUnlessPredefined(
          model_context.adjacency, model_context.num_nodes, &rng_)),
      embedding_(model_context.in_features, model_context.hidden_dim, &rng_),
      head_(model_context.hidden_dim, model_context.output_length, &rng_) {
  AUTOCTS_CHECK(genotype_.Validate().ok());
  const ops::OpContext op_context =
      models::MakeOpContext(model_context, adaptive_, &rng_);
  for (int64_t b = 0; b < genotype_.num_blocks(); ++b) {
    cells_.push_back(std::make_unique<DerivedCell>(
        genotype_.blocks[b], genotype_.nodes_per_block, op_context));
    RegisterModule("cell" + std::to_string(b), cells_.back().get());
  }
  RegisterModule("embedding", &embedding_);
  RegisterModule("head", &head_);
  if (adaptive_ != nullptr) RegisterModule("adaptive", adaptive_.get());
}

Variable DerivedModel::Forward(const Variable& x) {
  const Variable embedded = embedding_.Forward(x);
  std::vector<Variable> outputs;
  outputs.push_back(embedded);
  Variable merged;
  for (int64_t b = 0; b < genotype_.num_blocks(); ++b) {
    const Variable block_input = outputs[genotype_.block_inputs[b]];
    const Variable block_output = cells_[b]->Forward(block_input);
    outputs.push_back(block_output);
    merged = b == 0 ? block_output : ag::Add(merged, block_output);
  }
  return head_.Forward(merged, x);
}

}  // namespace autocts::core
