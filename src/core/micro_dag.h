// The micro search space (Section 3.2): a DAG over M latent representations
// whose edges are temperature-annealed softmax mixtures over the operator
// set (Eqs. 4-6), with PC-DARTS style partial channel connections
// (Section 4.1.4) for memory efficiency.
#ifndef AUTOCTS_CORE_MICRO_DAG_H_
#define AUTOCTS_CORE_MICRO_DAG_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/operator_set.h"
#include "nn/batch_norm.h"
#include "ops/op_registry.h"

namespace autocts::core {

// Index of node pair (i, j), i < j, in the flattened pair list.
int64_t PairIndex(int64_t i, int64_t j);
// Number of pairs for an M-node micro-DAG: M(M-1)/2.
int64_t NumPairs(int64_t num_nodes);

// ReLU - operator - BN wrapper applied to parametric operators (the DARTS
// ordering the paper adopts, Section 4.1.4). Non-parametric operators
// (zero, identity) and the human-designed blocks of
// HumanDesignedBlockSet(), which run as published, pass through unwrapped.
class WrappedOp : public nn::Module {
 public:
  WrappedOp(const std::string& op_name, const ops::OpContext& context);

  Variable Forward(const Variable& x);
  const std::string& op_name() const { return op_name_; }

 private:
  std::string op_name_;
  bool wrapped_;
  ops::StOperatorPtr op_;
  std::unique_ptr<nn::BatchNorm> batch_norm_;
};

// One mixed edge: all |O| candidate operators evaluated and combined with
// the provided softmax weights (Eq. 4). With partial channels, only the
// first channels/denominator channels go through the operators; the rest
// bypass, and the output channels are shuffled.
class MixedEdge : public nn::Module {
 public:
  MixedEdge(const OperatorSet& op_set, const ops::OpContext& context,
            int64_t partial_denominator);

  // x: [B, T, N, D]; op_weights: [|O|] mixture weights.
  Variable Forward(const Variable& x, const Variable& op_weights);

  int64_t num_ops() const { return static_cast<int64_t>(ops_.size()); }

 private:
  int64_t channels_;
  int64_t active_channels_;
  std::vector<std::unique_ptr<WrappedOp>> ops_;
};

// A full micro-DAG cell: M nodes, a MixedEdge per pair, architecture
// parameters alpha (per pair, over operators) and beta (per node, over
// incoming groups). Arch parameters are NOT in Parameters(); they are
// returned by ArchParameters() and optimized by the Theta optimizer.
class MicroDagCell : public nn::Module {
 public:
  MicroDagCell(int64_t num_nodes, const OperatorSet& op_set,
               const ops::OpContext& context, int64_t partial_denominator,
               Rng* rng);

  // Computes h_{M-1} from the input representation h_0 (Eq. 6), using
  // temperature `tau` on the alpha softmax.
  Variable Forward(const Variable& input, double tau);

  std::vector<Variable> ArchParameters() const;

  // ArchParameters() with stable names ("alpha", "beta1" .. "beta{M-1}"),
  // in the same order; used by checkpoint serialization.
  std::vector<std::pair<std::string, Variable>> NamedArchParameters() const;

  // The raw alpha parameter [num_pairs, |O|] (for cost-aware search
  // regularizers; see core/cost_model.h).
  const Variable& alpha_parameter() const { return alpha_; }

  // Current (post-softmax, tau=1) alpha weights for pair p: [|O|] tensor.
  Tensor AlphaWeights(int64_t pair) const;
  // Current beta weights for node j: [j] tensor.
  Tensor BetaWeights(int64_t node) const;

  int64_t num_nodes() const { return num_nodes_; }
  const OperatorSet& op_set() const { return op_set_; }

 private:
  int64_t num_nodes_;
  OperatorSet op_set_;
  std::vector<std::unique_ptr<MixedEdge>> edges_;  // indexed by PairIndex
  Variable alpha_;                 // [num_pairs, |O|]
  std::vector<Variable> betas_;    // betas_[j-1] has shape [j], j = 1..M-1
};

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_MICRO_DAG_H_
