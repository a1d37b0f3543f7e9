// Builds a concrete forecasting model from a derived Genotype for the
// architecture evaluation stage (Section 3.4): the discrete architecture is
// retrained from scratch with fresh weights.
#ifndef AUTOCTS_CORE_DERIVED_MODEL_H_
#define AUTOCTS_CORE_DERIVED_MODEL_H_

#include <memory>
#include <vector>

#include "core/genotype.h"
#include "core/micro_dag.h"
#include "models/forecasting_model.h"

namespace autocts::core {

// A discrete ST-block: only the kept edges exist; each node sums its
// incoming transformations; the last node is the block output.
class DerivedCell : public nn::Module {
 public:
  DerivedCell(const BlockGenotype& block, int64_t num_nodes,
              const ops::OpContext& context);

  Variable Forward(const Variable& input);

 private:
  int64_t num_nodes_;
  std::vector<EdgeGene> edges_;
  std::vector<std::unique_ptr<WrappedOp>> edge_ops_;  // parallel to edges_
};

// The full derived forecasting model: embedding -> ST-backbone (blocks
// wired per block_inputs, all outputs merged) -> output head.
class DerivedModel : public models::ForecastingModel {
 public:
  DerivedModel(const Genotype& genotype,
               const models::ModelContext& model_context);

  Variable Forward(const Variable& x) override;
  std::string name() const override { return "AutoCTS"; }

  const Genotype& genotype() const { return genotype_; }

 private:
  Genotype genotype_;
  Rng rng_;
  std::shared_ptr<graph::AdaptiveAdjacency> adaptive_;
  nn::Linear embedding_;
  std::vector<std::unique_ptr<DerivedCell>> cells_;
  models::OutputHead head_;
};

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_DERIVED_MODEL_H_
