// Operator sets for the micro search space (Section 3.2.3).
//
// The paper's two selection principles yield the compact set
//   O = {GDCC, INF-T, DGCN, INF-S, Zero, Identity}  (|O| = 6),
// while the "w/o design principles" ablation searches over ALL operators of
// Table 1 plus the two non-parametric ones (|O| = 12).
#ifndef AUTOCTS_CORE_OPERATOR_SET_H_
#define AUTOCTS_CORE_OPERATOR_SET_H_

#include <string>
#include <vector>

namespace autocts::core {

struct OperatorSet {
  std::string name;
  std::vector<std::string> op_names;  // keys into ops::OpRegistry

  int64_t size() const { return static_cast<int64_t>(op_names.size()); }
};

// The compact 6-operator set chosen by the paper's two principles.
OperatorSet CompactOperatorSet();

// All Table 1 operators + zero + identity ("w/o design principles").
OperatorSet FullOperatorSet();

// The AutoSTG search space: only 1D convolution and diffusion GCN
// (plus zero/identity), per the paper's description of that baseline.
OperatorSet AutoStgOperatorSet();

// The "macro only" ablation space (Section 4.2.3): the four human-designed
// ST-blocks of STGCN, Graph WaveNet, DCRNN and MTGNN (ops/st_blocks.h).
// core::MacroOnlyOptions searches it with one block per slot.
OperatorSet HumanDesignedBlockSet();

// True for operators with trainable parameters.
bool IsParametricOp(const std::string& op_name);

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_OPERATOR_SET_H_
