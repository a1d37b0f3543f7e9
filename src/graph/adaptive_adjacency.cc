#include "graph/adaptive_adjacency.h"

namespace autocts::graph {

AdaptiveAdjacency::AdaptiveAdjacency(int64_t num_nodes, int64_t embedding_dim,
                                     Rng* rng)
    : num_nodes_(num_nodes) {
  source_embedding_ = RegisterParameter(
      "source_embedding",
      Tensor::Randn({num_nodes, embedding_dim}, rng, 0.0, 0.1));
  target_embedding_ = RegisterParameter(
      "target_embedding",
      Tensor::Randn({num_nodes, embedding_dim}, rng, 0.0, 0.1));
}

Variable AdaptiveAdjacency::Forward() const {
  const Variable scores = ag::MatMul(
      source_embedding_, ag::Transpose(target_embedding_, 0, 1));
  return ag::Softmax(ag::Relu(scores), /*axis=*/-1);
}

Variable AdaptiveAdjacency::ForwardReverse() const {
  const Variable scores = ag::MatMul(
      target_embedding_, ag::Transpose(source_embedding_, 0, 1));
  return ag::Softmax(ag::Relu(scores), /*axis=*/-1);
}

std::shared_ptr<AdaptiveAdjacency> AdaptiveUnlessPredefined(
    const Tensor& adjacency, int64_t num_nodes, Rng* rng) {
  if (adjacency.defined()) return nullptr;
  return std::make_shared<AdaptiveAdjacency>(num_nodes, kAdaptiveEmbeddingDim,
                                             rng);
}

}  // namespace autocts::graph
