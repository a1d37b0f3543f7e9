#include "models/dcrnn.h"

namespace autocts::models {

Dcrnn::Dcrnn(const ModelContext& context)
    : output_length_(context.output_length),
      rng_(context.seed),
      adaptive_(graph::AdaptiveUnlessPredefined(context.adjacency,
                                                context.num_nodes, &rng_)),
      embedding_(context.in_features, context.hidden_dim, &rng_),
      encoder_cell_(context.hidden_dim,
                    MakeOpContext(context, adaptive_, &rng_)),
      decoder_cell_(context.hidden_dim,
                    MakeOpContext(context, adaptive_, &rng_)),
      decoder_input_proj_(1, context.hidden_dim, &rng_),
      decoder_output_(context.hidden_dim, 1, &rng_) {
  RegisterModule("embedding", &embedding_);
  RegisterModule("encoder_cell", &encoder_cell_);
  RegisterModule("decoder_cell", &decoder_cell_);
  RegisterModule("decoder_input_proj", &decoder_input_proj_);
  RegisterModule("decoder_output", &decoder_output_);
  if (adaptive_ != nullptr) RegisterModule("adaptive", adaptive_.get());
}

Variable Dcrnn::Forward(const Variable& x) {
  AUTOCTS_CHECK_EQ(x.ndim(), 4);
  const int64_t batch = x.dim(0);
  const int64_t steps = x.dim(1);
  const int64_t nodes = x.dim(2);
  const Variable embedded = embedding_.Forward(x);

  // Encoder: run the DCGRU over the P input steps.
  Variable h = ag::Constant(
      Tensor::Zeros({batch, nodes, encoder_cell_.hidden_dim()}));
  for (int64_t t = 0; t < steps; ++t) {
    const Variable x_t =
        ag::Reshape(ag::Slice(embedded, 1, t, 1),
                    {batch, nodes, encoder_cell_.hidden_dim()});
    h = encoder_cell_.Forward(x_t, h);
  }

  // Decoder: autoregressively emit Q predictions, feeding each back in
  // (inference-style unrolling; no teacher forcing).
  Variable previous = ag::Constant(Tensor::Zeros({batch, nodes, 1}));
  std::vector<Variable> outputs;
  outputs.reserve(output_length_);
  for (int64_t q = 0; q < output_length_; ++q) {
    const Variable input = decoder_input_proj_.Forward(previous);
    h = decoder_cell_.Forward(input, h);
    previous = decoder_output_.Forward(h);  // [B, N, 1]
    outputs.push_back(ag::Reshape(previous, {batch, 1, nodes, 1}));
  }
  return ag::Concat(outputs, /*axis=*/1);
}

}  // namespace autocts::models
