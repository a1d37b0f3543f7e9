#include "models/mtgnn.h"

namespace autocts::models {

Mtgnn::Mtgnn(const ModelContext& context, int64_t num_blocks)
    : rng_(context.seed),
      // MTGNN's defining feature is its graph-learning layer; it always
      // learns the adjacency from data, even when a predefined one exists.
      adaptive_(std::make_shared<graph::AdaptiveAdjacency>(
          context.num_nodes, graph::kAdaptiveEmbeddingDim, &rng_)),
      embedding_(context.in_features, context.hidden_dim, &rng_),
      head_(context.hidden_dim, context.output_length, &rng_) {
  AUTOCTS_CHECK_GE(num_blocks, 1);
  ModelContext learned = context;
  learned.adjacency = Tensor();  // Force the learned graph in all blocks.
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t dilation = b + 1;
    blocks_.push_back(std::make_unique<ops::MtgnnBlock>(
        MakeOpContext(learned, adaptive_, &rng_, dilation)));
    RegisterModule("block" + std::to_string(b), blocks_.back().get());
  }
  RegisterModule("embedding", &embedding_);
  RegisterModule("head", &head_);
  RegisterModule("adaptive", adaptive_.get());
}

Variable Mtgnn::Forward(const Variable& x) {
  Variable features = embedding_.Forward(x);
  Variable skip;
  for (auto& block : blocks_) {
    features = block->Forward(features);
    skip = skip.defined() ? ag::Add(skip, features) : features;
  }
  return head_.Forward(ag::Relu(skip), x);
}

}  // namespace autocts::models
