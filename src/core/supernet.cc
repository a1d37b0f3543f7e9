#include "core/supernet.h"

#include <algorithm>
#include <functional>

#include "tensor/tensor_ops.h"

namespace autocts::core {

Supernet::Supernet(const SupernetConfig& config,
                   const models::ModelContext& model_context)
    : config_(config),
      rng_(model_context.seed),
      adaptive_(graph::AdaptiveUnlessPredefined(
          model_context.adjacency, model_context.num_nodes, &rng_)),
      embedding_(model_context.in_features, config.hidden_dim, &rng_),
      head_(config.hidden_dim, model_context.output_length, &rng_) {
  AUTOCTS_CHECK_GE(config_.macro_blocks, 1);
  models::ModelContext context = model_context;
  context.hidden_dim = config_.hidden_dim;
  const ops::OpContext op_context =
      models::MakeOpContext(context, adaptive_, &rng_);
  for (int64_t b = 0; b < config_.macro_blocks; ++b) {
    cells_.push_back(std::make_unique<MicroDagCell>(
        config_.micro_nodes, config_.op_set, op_context,
        config_.partial_denominator, &rng_));
    RegisterModule("cell" + std::to_string(b), cells_.back().get());
    gammas_.emplace_back(Tensor::Randn({b + 1}, &rng_, 0.0, 1e-3),
                         /*requires_grad=*/true);
  }
  RegisterModule("embedding", &embedding_);
  RegisterModule("head", &head_);
  if (adaptive_ != nullptr) RegisterModule("adaptive", adaptive_.get());
}

Variable Supernet::Forward(const Variable& x) {
  const Variable embedded = embedding_.Forward(x);
  // outputs[0] = embedding; outputs[1 + b] = block b's output.
  std::vector<Variable> outputs;
  outputs.push_back(embedded);
  Variable merged;
  for (int64_t b = 0; b < config_.macro_blocks; ++b) {
    // Eq. 18: softmax(gamma)-weighted sum over all predecessors.
    const Variable weights = ag::Softmax(gammas_[b], /*axis=*/0);
    Variable block_input;
    for (int64_t i = 0; i <= b; ++i) {
      const Variable weight = ag::Slice(weights, 0, i, 1);
      const Variable term = ag::Mul(outputs[i], weight);
      block_input = i == 0 ? term : ag::Add(block_input, term);
    }
    const Variable block_output = cells_[b]->Forward(block_input, tau_);
    outputs.push_back(block_output);
    // Hard-coded connection from every ST-block to the output layer.
    merged = b == 0 ? block_output : ag::Add(merged, block_output);
  }
  return head_.Forward(merged, x);
}

std::vector<Variable> Supernet::ArchParameters() const {
  std::vector<Variable> parameters;
  for (const auto& cell : cells_) {
    for (const Variable& p : cell->ArchParameters()) parameters.push_back(p);
  }
  for (const Variable& gamma : gammas_) parameters.push_back(gamma);
  return parameters;
}

std::vector<std::pair<std::string, Variable>> Supernet::NamedArchParameters()
    const {
  std::vector<std::pair<std::string, Variable>> parameters;
  for (size_t b = 0; b < cells_.size(); ++b) {
    for (const auto& [name, p] : cells_[b]->NamedArchParameters()) {
      parameters.emplace_back("cell" + std::to_string(b) + "." + name, p);
    }
  }
  for (size_t b = 0; b < gammas_.size(); ++b) {
    parameters.emplace_back("gamma" + std::to_string(b), gammas_[b]);
  }
  return parameters;
}

Genotype Supernet::Derive() const {
  Genotype genotype;
  genotype.nodes_per_block = config_.micro_nodes;
  const int64_t num_ops = config_.op_set.size();

  for (int64_t b = 0; b < config_.macro_blocks; ++b) {
    const MicroDagCell& cell = *cells_[b];
    BlockGenotype block;
    for (int64_t j = 1; j < config_.micro_nodes; ++j) {
      const Tensor beta = cell.BetaWeights(j);  // [j]
      // Eq. 7 weights for every (incoming edge i, operator o), with Zero
      // excluded so derived blocks always compute something.
      auto best_op_for = [&](int64_t i, double* weight) {
        const Tensor alpha = cell.AlphaWeights(PairIndex(i, j));
        int64_t best = -1;
        double best_weight = -1.0;
        for (int64_t o = 0; o < num_ops; ++o) {
          if (config_.op_set.op_names[o] == "zero") continue;
          const double w = beta.data()[i] * alpha.data()[o];
          if (w > best_weight) {
            best_weight = w;
            best = o;
          }
        }
        *weight = best_weight;
        return best;
      };

      // Rule 1: always keep the edge from the immediate predecessor.
      double weight = 0.0;
      const int64_t op_prev = best_op_for(j - 1, &weight);
      block.edges.push_back({j - 1, j, config_.op_set.op_names[op_prev]});

      // Rule 2: keep the strongest (edges_per_node - 1) other edges.
      std::vector<std::pair<double, std::pair<int64_t, int64_t>>> candidates;
      for (int64_t i = 0; i < j - 1; ++i) {
        double w = 0.0;
        const int64_t op = best_op_for(i, &w);
        candidates.push_back({w, {i, op}});
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const int64_t extra = std::min<int64_t>(
          config_.edges_per_node - 1, static_cast<int64_t>(candidates.size()));
      for (int64_t e = 0; e < extra; ++e) {
        const auto& [w, edge] = candidates[e];
        block.edges.push_back(
            {edge.first, j, config_.op_set.op_names[edge.second]});
      }
    }
    genotype.blocks.push_back(std::move(block));

    // Macro: keep the predecessor with the largest gamma.
    const Tensor gamma = gammas_[b].value();
    int64_t best_input = 0;
    for (int64_t i = 1; i <= b; ++i) {
      if (gamma.data()[i] > gamma.data()[best_input]) best_input = i;
    }
    genotype.block_inputs.push_back(best_input);
  }
  AUTOCTS_CHECK(genotype.Validate().ok());
  return genotype;
}

std::vector<Genotype> Supernet::DeriveTopK(int64_t k) const {
  AUTOCTS_CHECK_GE(k, 1);
  const Genotype base = Derive();
  std::vector<Genotype> candidates;
  candidates.push_back(base);
  if (k == 1) return candidates;

  // One single-decision swap away from the base derivation. `penalty` is
  // the architecture-parameter score the swap gives up (>= 0 by
  // construction); `order` breaks exact ties by decision position so the
  // ranking never depends on sort implementation details.
  struct Substitution {
    double penalty = 0.0;
    int64_t order = 0;
    std::function<void(Genotype*)> apply;
  };
  std::vector<Substitution> substitutions;
  int64_t order = 0;
  const int64_t num_ops = config_.op_set.size();

  for (int64_t b = 0; b < config_.macro_blocks; ++b) {
    const MicroDagCell& cell = *cells_[b];
    // Derive() appends node j's edges as [predecessor, extras...]; walk the
    // same layout so `slot` addresses the matching entry of
    // base.blocks[b].edges.
    int64_t slot = 0;
    for (int64_t j = 1; j < config_.micro_nodes; ++j) {
      const Tensor beta = cell.BetaWeights(j);
      // Eq. 7 weights for edge i -> j over all non-Zero operators, best
      // first (ties to the lower operator index, matching Derive's argmax).
      const auto ranked_ops = [&](int64_t i) {
        std::vector<std::pair<double, int64_t>> ranked;
        const Tensor alpha = cell.AlphaWeights(PairIndex(i, j));
        for (int64_t o = 0; o < num_ops; ++o) {
          if (config_.op_set.op_names[o] == "zero") continue;
          ranked.push_back({beta.data()[i] * alpha.data()[o], o});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto& x, const auto& y) {
                    return x.first != y.first ? x.first > y.first
                                             : x.second < y.second;
                  });
        return ranked;
      };

      const int64_t node_edges = static_cast<int64_t>(
          1 + std::min<int64_t>(config_.edges_per_node - 1, j - 1));
      // Operator swaps: every kept edge can fall back to its runner-up op.
      for (int64_t e = 0; e < node_edges; ++e) {
        const EdgeGene& edge = base.blocks[b].edges[slot + e];
        const auto ranked = ranked_ops(edge.from);
        if (ranked.size() < 2) continue;
        const std::string runner_up = config_.op_set.op_names[ranked[1].second];
        const int64_t edge_slot = slot + e;
        substitutions.push_back(
            {ranked[0].first - ranked[1].first, order++,
             [b, edge_slot, runner_up](Genotype* genotype) {
               genotype->blocks[b].edges[edge_slot].op = runner_up;
             }});
      }
      // Edge swaps: every kept non-predecessor edge can be replaced by the
      // strongest candidate edge Derive() left out.
      std::vector<bool> kept(std::max<int64_t>(j - 1, 0), false);
      for (int64_t e = 1; e < node_edges; ++e) {
        kept[base.blocks[b].edges[slot + e].from] = true;
      }
      int64_t best_unkept = -1;
      int64_t best_unkept_op = -1;
      double best_unkept_weight = 0.0;
      for (int64_t i = 0; i < j - 1; ++i) {
        if (kept[i]) continue;
        const auto ranked = ranked_ops(i);
        if (ranked.empty()) continue;
        if (best_unkept < 0 || ranked[0].first > best_unkept_weight) {
          best_unkept = i;
          best_unkept_op = ranked[0].second;
          best_unkept_weight = ranked[0].first;
        }
      }
      if (best_unkept >= 0) {
        const std::string unkept_op = config_.op_set.op_names[best_unkept_op];
        for (int64_t e = 1; e < node_edges; ++e) {
          const EdgeGene& edge = base.blocks[b].edges[slot + e];
          const double kept_weight = ranked_ops(edge.from)[0].first;
          const int64_t edge_slot = slot + e;
          const int64_t from = best_unkept;
          substitutions.push_back(
              {kept_weight - best_unkept_weight, order++,
               [b, edge_slot, from, unkept_op](Genotype* genotype) {
                 genotype->blocks[b].edges[edge_slot].from = from;
                 genotype->blocks[b].edges[edge_slot].op = unkept_op;
               }});
        }
      }
      slot += node_edges;
    }

    // Macro swaps: block b can read from the second-largest gamma instead.
    if (b >= 1) {
      const Tensor gamma = gammas_[b].value();
      const int64_t best = base.block_inputs[b];
      int64_t second = -1;
      for (int64_t i = 0; i <= b; ++i) {
        if (i == best) continue;
        if (second < 0 || gamma.data()[i] > gamma.data()[second]) second = i;
      }
      if (second >= 0) {
        substitutions.push_back(
            {gamma.data()[best] - gamma.data()[second], order++,
             [b, second](Genotype* genotype) {
               genotype->block_inputs[b] = second;
             }});
      }
    }
  }

  std::sort(substitutions.begin(), substitutions.end(),
            [](const Substitution& x, const Substitution& y) {
              return x.penalty != y.penalty ? x.penalty < y.penalty
                                            : x.order < y.order;
            });
  for (const Substitution& substitution : substitutions) {
    if (static_cast<int64_t>(candidates.size()) >= k) break;
    Genotype variant = base;
    substitution.apply(&variant);
    AUTOCTS_CHECK(variant.Validate().ok());
    candidates.push_back(std::move(variant));
  }
  return candidates;
}

}  // namespace autocts::core
