// Learned ("adaptive") adjacency from node embeddings, as introduced by
// Graph WaveNet and used by AGCRN / MTGNN. This is the data-driven graph
// the paper refers to for datasets without a predefined adjacency matrix
// (Solar-Energy, Electricity; Section 4.1.1).
#ifndef AUTOCTS_GRAPH_ADAPTIVE_ADJACENCY_H_
#define AUTOCTS_GRAPH_ADAPTIVE_ADJACENCY_H_

#include <memory>

#include "autograd/variable_ops.h"
#include "nn/module.h"

namespace autocts::graph {

// Width of the node embeddings of every model's learned graph; model
// artifacts are checked against it.
inline constexpr int64_t kAdaptiveEmbeddingDim = 8;

// A_adapt = Softmax(ReLU(E1 E2^T)) with learnable embeddings E1, E2.
class AdaptiveAdjacency : public nn::Module {
 public:
  AdaptiveAdjacency(int64_t num_nodes, int64_t embedding_dim, Rng* rng);

  // Returns the differentiable [N, N] row-stochastic adjacency.
  Variable Forward() const;

  // The reverse-direction adjacency Softmax(ReLU(E2 E1^T)); used as the
  // backward random-walk matrix by the diffusion GCN when no predefined
  // graph exists.
  Variable ForwardReverse() const;

  int64_t num_nodes() const { return num_nodes_; }

 private:
  int64_t num_nodes_;
  Variable source_embedding_;  // [N, d]
  Variable target_embedding_;  // [N, d]
};

// The graph a model learns when the data has none: null when `adjacency`
// (the predefined graph) is defined, else a fresh AdaptiveAdjacency over
// `num_nodes` nodes with kAdaptiveEmbeddingDim-wide embeddings from `rng`.
std::shared_ptr<AdaptiveAdjacency> AdaptiveUnlessPredefined(
    const Tensor& adjacency, int64_t num_nodes, Rng* rng);

}  // namespace autocts::graph

#endif  // AUTOCTS_GRAPH_ADAPTIVE_ADJACENCY_H_
