#include "models/agcrn.h"

namespace autocts::models {

Agcrn::Agcrn(const ModelContext& context)
    : hidden_dim_(context.hidden_dim),
      rng_(context.seed),
      adaptive_(std::make_shared<graph::AdaptiveAdjacency>(
          context.num_nodes, graph::kAdaptiveEmbeddingDim, &rng_)),
      embedding_(context.in_features, context.hidden_dim, &rng_),
      zr_gates_(2 * context.hidden_dim, 2 * context.hidden_dim,
                /*max_step=*/2, Tensor(), adaptive_, &rng_),
      candidate_(2 * context.hidden_dim, context.hidden_dim, /*max_step=*/2,
                 Tensor(), adaptive_, &rng_),
      head_(context.hidden_dim, context.output_length, &rng_) {
  RegisterModule("embedding", &embedding_);
  RegisterModule("zr_gates", &zr_gates_);
  RegisterModule("candidate", &candidate_);
  RegisterModule("head", &head_);
  RegisterModule("adaptive", adaptive_.get());
}

Variable Agcrn::Forward(const Variable& x) {
  AUTOCTS_CHECK_EQ(x.ndim(), 4);
  const int64_t batch = x.dim(0);
  const int64_t steps = x.dim(1);
  const int64_t nodes = x.dim(2);
  const Variable embedded = embedding_.Forward(x);
  Variable h = ag::Constant(Tensor::Zeros({batch, nodes, hidden_dim_}));
  std::vector<Variable> sequence;
  sequence.reserve(steps);
  for (int64_t t = 0; t < steps; ++t) {
    const Variable x_t = ag::Reshape(ag::Slice(embedded, 1, t, 1),
                                     {batch, nodes, hidden_dim_});
    const Variable joined = ag::Concat({x_t, h}, /*axis=*/-1);
    const Variable zr = ag::Sigmoid(zr_gates_.Forward(joined));
    const Variable z = ag::Slice(zr, -1, 0, hidden_dim_);
    const Variable r = ag::Slice(zr, -1, hidden_dim_, hidden_dim_);
    const Variable cand = ag::Tanh(candidate_.Forward(
        ag::Concat({x_t, ag::Mul(r, h)}, /*axis=*/-1)));
    h = ag::Add(ag::Mul(z, h),
                ag::Mul(ag::AddScalar(ag::Neg(z), 1.0), cand));
    sequence.push_back(ag::Reshape(h, {batch, 1, nodes, hidden_dim_}));
  }
  return head_.Forward(ag::Concat(sequence, /*axis=*/1), x);
}

}  // namespace autocts::models
