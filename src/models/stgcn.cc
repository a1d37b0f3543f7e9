#include "models/stgcn.h"

namespace autocts::models {

Stgcn::Stgcn(const ModelContext& context)
    : rng_(context.seed),
      adaptive_(graph::AdaptiveUnlessPredefined(context.adjacency,
                                                context.num_nodes, &rng_)),
      embedding_(context.in_features, context.hidden_dim, &rng_),
      block1_(MakeOpContext(context, adaptive_, &rng_)),
      block2_(MakeOpContext(context, adaptive_, &rng_)),
      head_(context.hidden_dim, context.output_length, &rng_) {
  RegisterModule("embedding", &embedding_);
  RegisterModule("block1", &block1_);
  RegisterModule("block2", &block2_);
  RegisterModule("head", &head_);
  if (adaptive_ != nullptr) RegisterModule("adaptive", adaptive_.get());
}

Variable Stgcn::Forward(const Variable& x) {
  const Variable embedded = embedding_.Forward(x);
  const Variable features = block2_.Forward(block1_.Forward(embedded));
  return head_.Forward(features, x);
}

}  // namespace autocts::models
