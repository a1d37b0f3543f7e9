// DCRNN baseline (Li et al., ICLR 2018): diffusion convolutional recurrent
// network with an encoder-decoder (seq2seq) architecture. The sequential
// decoder is why DCRNN has the slowest training/inference in Tables 27-32.
#ifndef AUTOCTS_MODELS_DCRNN_H_
#define AUTOCTS_MODELS_DCRNN_H_

#include "models/forecasting_model.h"
#include "ops/st_blocks.h"

namespace autocts::models {

class Dcrnn : public ForecastingModel {
 public:
  explicit Dcrnn(const ModelContext& context);

  Variable Forward(const Variable& x) override;
  std::string name() const override { return "DCRNN"; }

 private:
  int64_t output_length_;
  Rng rng_;
  std::shared_ptr<graph::AdaptiveAdjacency> adaptive_;
  nn::Linear embedding_;
  ops::DcgruCell encoder_cell_;
  ops::DcgruCell decoder_cell_;
  nn::Linear decoder_input_proj_;  // previous prediction (1) -> hidden
  nn::Linear decoder_output_;      // hidden -> 1
};

}  // namespace autocts::models

#endif  // AUTOCTS_MODELS_DCRNN_H_
