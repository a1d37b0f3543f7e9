// MTGNN baseline (Wu et al., KDD 2020): graph-learning layer (adaptive
// adjacency) + blocks of dilated-inception temporal convolution and mix-hop
// graph propagation with residual/skip connections.
#ifndef AUTOCTS_MODELS_MTGNN_H_
#define AUTOCTS_MODELS_MTGNN_H_

#include <vector>

#include "models/forecasting_model.h"
#include "ops/st_blocks.h"

namespace autocts::models {

class Mtgnn : public ForecastingModel {
 public:
  explicit Mtgnn(const ModelContext& context, int64_t num_blocks = 3);

  Variable Forward(const Variable& x) override;
  std::string name() const override { return "MTGNN"; }

 private:
  Rng rng_;
  std::shared_ptr<graph::AdaptiveAdjacency> adaptive_;
  nn::Linear embedding_;
  std::vector<std::unique_ptr<ops::MtgnnBlock>> blocks_;
  OutputHead head_;
};

}  // namespace autocts::models

#endif  // AUTOCTS_MODELS_MTGNN_H_
