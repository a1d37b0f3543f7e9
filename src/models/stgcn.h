// STGCN baseline (Yu et al., IJCAI 2018): two stacked "sandwich" ST-blocks
// (gated temporal conv - Chebyshev GCN - gated temporal conv), Figure 3 of
// the AutoCTS paper.
#ifndef AUTOCTS_MODELS_STGCN_H_
#define AUTOCTS_MODELS_STGCN_H_

#include "models/forecasting_model.h"
#include "ops/st_blocks.h"

namespace autocts::models {

class Stgcn : public ForecastingModel {
 public:
  explicit Stgcn(const ModelContext& context);

  Variable Forward(const Variable& x) override;
  std::string name() const override { return "STGCN"; }

 private:
  Rng rng_;
  std::shared_ptr<graph::AdaptiveAdjacency> adaptive_;
  nn::Linear embedding_;
  ops::StgcnBlock block1_;
  ops::StgcnBlock block2_;
  OutputHead head_;
};

}  // namespace autocts::models

#endif  // AUTOCTS_MODELS_STGCN_H_
