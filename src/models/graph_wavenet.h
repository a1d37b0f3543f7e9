// Graph WaveNet baseline (Wu et al., IJCAI 2019): stacked GDCC + diffusion
// GCN blocks with residual and skip connections, plus a self-adaptive
// adjacency matrix learned from node embeddings.
#ifndef AUTOCTS_MODELS_GRAPH_WAVENET_H_
#define AUTOCTS_MODELS_GRAPH_WAVENET_H_

#include <vector>

#include "models/forecasting_model.h"
#include "ops/st_blocks.h"

namespace autocts::models {

class GraphWaveNet : public ForecastingModel {
 public:
  explicit GraphWaveNet(const ModelContext& context, int64_t num_blocks = 4);

  Variable Forward(const Variable& x) override;
  std::string name() const override { return "GraphWaveNet"; }

 private:
  Rng rng_;
  std::shared_ptr<graph::AdaptiveAdjacency> adaptive_;
  nn::Linear embedding_;
  std::vector<std::unique_ptr<ops::GwnBlock>> blocks_;  // dilations 1,2,1,2,...
  OutputHead head_;
};

}  // namespace autocts::models

#endif  // AUTOCTS_MODELS_GRAPH_WAVENET_H_
