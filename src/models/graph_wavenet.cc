#include "models/graph_wavenet.h"

namespace autocts::models {

GraphWaveNet::GraphWaveNet(const ModelContext& context, int64_t num_blocks)
    : rng_(context.seed),
      // Graph WaveNet always learns a self-adaptive adjacency, even when a
      // predefined graph exists; the predefined one (if any) is used by the
      // diffusion transitions inside the blocks.
      adaptive_(std::make_shared<graph::AdaptiveAdjacency>(
          context.num_nodes, graph::kAdaptiveEmbeddingDim, &rng_)),
      embedding_(context.in_features, context.hidden_dim, &rng_),
      head_(context.hidden_dim, context.output_length, &rng_) {
  AUTOCTS_CHECK_GE(num_blocks, 1);
  for (int64_t b = 0; b < num_blocks; ++b) {
    const int64_t dilation = (b % 2 == 0) ? 1 : 2;
    blocks_.push_back(std::make_unique<ops::GwnBlock>(
        MakeOpContext(context, adaptive_, &rng_, dilation)));
    RegisterModule("block" + std::to_string(b), blocks_.back().get());
  }
  RegisterModule("embedding", &embedding_);
  RegisterModule("head", &head_);
  if (!context.adjacency.defined()) {
    RegisterModule("adaptive", adaptive_.get());
  }
}

Variable GraphWaveNet::Forward(const Variable& x) {
  Variable features = embedding_.Forward(x);
  Variable skip;
  for (auto& block : blocks_) {
    features = block->Forward(features);
    skip = skip.defined() ? ag::Add(skip, features) : features;
  }
  return head_.Forward(ag::Relu(skip), x);
}

}  // namespace autocts::models
