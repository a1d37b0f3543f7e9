#include "ops/st_blocks.h"

#include "nn/activations.h"

namespace autocts::ops {

StgcnBlock::StgcnBlock(const OpContext& context)
    : temporal_in_(context.channels, 2 * context.channels,
                   context.kernel_size, context.dilation, /*causal=*/true,
                   context.rng),
      spatial_(context),
      temporal_out_(context.channels, 2 * context.channels,
                    context.kernel_size, context.dilation, /*causal=*/true,
                    context.rng) {
  RegisterModule("temporal_in", &temporal_in_);
  RegisterModule("spatial", &spatial_);
  RegisterModule("temporal_out", &temporal_out_);
}

Variable StgcnBlock::Forward(const Variable& x) {
  const Variable t1 = nn::Glu(temporal_in_.Forward(x));
  const Variable s = ag::Relu(spatial_.Forward(t1));
  return nn::Glu(temporal_out_.Forward(s));
}

GwnBlock::GwnBlock(const OpContext& context)
    : temporal_(context), spatial_(context) {
  RegisterModule("temporal", &temporal_);
  RegisterModule("spatial", &spatial_);
}

Variable GwnBlock::Forward(const Variable& x) {
  return ag::Add(spatial_.Forward(temporal_.Forward(x)), x);
}

DcgruCell::DcgruCell(int64_t input_dim, const OpContext& context)
    : hidden_dim_(context.channels),
      zr_gates_(input_dim + context.channels, 2 * context.channels,
                context.max_diffusion_step, context.adjacency,
                context.adaptive, context.rng),
      candidate_(input_dim + context.channels, context.channels,
                 context.max_diffusion_step, context.adjacency,
                 context.adaptive, context.rng) {
  RegisterModule("zr_gates", &zr_gates_);
  RegisterModule("candidate", &candidate_);
}

Variable DcgruCell::Forward(const Variable& x, const Variable& h) const {
  const Variable joined = ag::Concat({x, h}, /*axis=*/-1);
  const Variable zr = ag::Sigmoid(zr_gates_.Forward(joined));
  const Variable z = ag::Slice(zr, -1, 0, hidden_dim_);
  const Variable r = ag::Slice(zr, -1, hidden_dim_, hidden_dim_);
  const Variable cand = ag::Tanh(
      candidate_.Forward(ag::Concat({x, ag::Mul(r, h)}, /*axis=*/-1)));
  return ag::Add(ag::Mul(z, h),
                 ag::Mul(ag::AddScalar(ag::Neg(z), 1.0), cand));
}

DcgruBlock::DcgruBlock(const OpContext& context)
    : cell_(context.channels, context) {
  RegisterModule("cell", &cell_);
}

Variable DcgruBlock::Forward(const Variable& x) {
  AUTOCTS_CHECK_EQ(x.ndim(), 4);
  const int64_t batch = x.dim(0);
  const int64_t steps = x.dim(1);
  const int64_t nodes = x.dim(2);
  Variable h =
      ag::Constant(Tensor::Zeros({batch, nodes, cell_.hidden_dim()}));
  std::vector<Variable> outputs;
  outputs.reserve(steps);
  for (int64_t t = 0; t < steps; ++t) {
    const Variable x_t = ag::Reshape(ag::Slice(x, 1, t, 1),
                                     {batch, nodes, x.dim(3)});
    h = cell_.Forward(x_t, h);
    outputs.push_back(
        ag::Reshape(h, {batch, 1, nodes, cell_.hidden_dim()}));
  }
  return ag::Concat(outputs, /*axis=*/1);
}

MtgnnBlock::MtgnnBlock(const OpContext& context)
    : filter_k2_(context.channels, context.channels / 2, /*kernel_size=*/2,
                 context.dilation, /*causal=*/true, context.rng),
      filter_k3_(context.channels, context.channels - context.channels / 2,
                 /*kernel_size=*/3, context.dilation, /*causal=*/true,
                 context.rng),
      gate_k2_(context.channels, context.channels / 2, /*kernel_size=*/2,
               context.dilation, /*causal=*/true, context.rng),
      gate_k3_(context.channels, context.channels - context.channels / 2,
               /*kernel_size=*/3, context.dilation, /*causal=*/true,
               context.rng),
      mix_hop_(context.channels, context.channels, context.max_diffusion_step,
               context.adjacency, context.adaptive, context.rng) {
  RegisterModule("filter_k2", &filter_k2_);
  RegisterModule("filter_k3", &filter_k3_);
  RegisterModule("gate_k2", &gate_k2_);
  RegisterModule("gate_k3", &gate_k3_);
  RegisterModule("mix_hop", &mix_hop_);
}

Variable MtgnnBlock::Forward(const Variable& x) {
  const Variable filter = ag::Tanh(ag::Concat(
      {filter_k2_.Forward(x), filter_k3_.Forward(x)}, /*axis=*/-1));
  const Variable gate = ag::Sigmoid(ag::Concat(
      {gate_k2_.Forward(x), gate_k3_.Forward(x)}, /*axis=*/-1));
  const Variable temporal = ag::Mul(filter, gate);
  return ag::Add(mix_hop_.Forward(temporal), x);
}

}  // namespace autocts::ops
