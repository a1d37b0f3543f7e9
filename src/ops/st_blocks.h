// Human-designed ST-blocks from the literature, registered as S/T operators
// under their block names ("stgcn_block", "gwn_block", "dcgru_block",
// "mtgnn_block").
//
// These serve two purposes in the reproduction:
//  1. the building blocks of the baseline models (STGCN, DCRNN,
//     Graph WaveNet, MTGNN), and
//  2. the operator set of the "macro only" ablation variant
//     (Section 4.2.3, core::HumanDesignedBlockSet()), which searches a
//     topology over exactly these four blocks.
#ifndef AUTOCTS_OPS_ST_BLOCKS_H_
#define AUTOCTS_OPS_ST_BLOCKS_H_

#include <string>

#include "nn/conv.h"
#include "ops/gcn_ops.h"
#include "ops/rnn_ops.h"
#include "ops/st_operator.h"
#include "ops/temporal_conv_ops.h"

namespace autocts::ops {

// STGCN's "sandwich": gated temporal conv - Chebyshev GCN - gated temporal
// conv (Figure 3 of the paper).
class StgcnBlock : public StOperator {
 public:
  explicit StgcnBlock(const OpContext& context);
  Variable Forward(const Variable& x) override;
  std::string name() const override { return "stgcn_block"; }

 private:
  nn::TemporalConv1d temporal_in_;   // D -> 2D, followed by GLU
  ChebGcnOp spatial_;
  nn::TemporalConv1d temporal_out_;  // D -> 2D, followed by GLU
};

// Graph WaveNet's block: GDCC then diffusion GCN with a residual
// connection.
class GwnBlock : public StOperator {
 public:
  explicit GwnBlock(const OpContext& context);
  Variable Forward(const Variable& x) override;
  std::string name() const override { return "gwn_block"; }

 private:
  GdccOp temporal_;
  DgcnOp spatial_;
};

// One DCGRU step (Li et al., 2018): a GRU cell whose gates are diffusion
// graph convolutions. Shared by DcgruBlock and the DCRNN decoder.
class DcgruCell : public nn::Module {
 public:
  // `context.channels` is the hidden width; `input_dim` the input width.
  DcgruCell(int64_t input_dim, const OpContext& context);

  // x: [B, N, input_dim], h: [B, N, hidden] -> new h.
  Variable Forward(const Variable& x, const Variable& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  GraphDiffusionConv zr_gates_;   // [x, h] -> 2D
  GraphDiffusionConv candidate_;  // [x, r*h] -> D
};

// DCRNN's DCGRU unrolled along time.
class DcgruBlock : public StOperator {
 public:
  explicit DcgruBlock(const OpContext& context);
  Variable Forward(const Variable& x) override;
  std::string name() const override { return "dcgru_block"; }

 private:
  DcgruCell cell_;
};

// MTGNN-style block: dilated-inception temporal convolution (kernels 2 and
// 3) with a GLU-style gate, followed by a mix-hop diffusion GCN, with a
// residual connection.
class MtgnnBlock : public StOperator {
 public:
  explicit MtgnnBlock(const OpContext& context);
  Variable Forward(const Variable& x) override;
  std::string name() const override { return "mtgnn_block"; }

 private:
  nn::TemporalConv1d filter_k2_;  // D -> D/2
  nn::TemporalConv1d filter_k3_;  // D -> D - D/2
  nn::TemporalConv1d gate_k2_;
  nn::TemporalConv1d gate_k3_;
  GraphDiffusionConv mix_hop_;
};

}  // namespace autocts::ops

#endif  // AUTOCTS_OPS_ST_BLOCKS_H_
