#include "core/operator_set.h"

namespace autocts::core {

OperatorSet CompactOperatorSet() {
  return {"compact", {"zero", "identity", "gdcc", "inf_t", "dgcn", "inf_s"}};
}

OperatorSet FullOperatorSet() {
  return {"full",
          {"zero", "identity", "conv1d", "gdcc", "lstm", "gru", "trans_t",
           "inf_t", "cheb_gcn", "dgcn", "trans_s", "inf_s"}};
}

OperatorSet AutoStgOperatorSet() {
  return {"autostg", {"zero", "identity", "conv1d", "dgcn"}};
}

OperatorSet HumanDesignedBlockSet() {
  return {"human_designed",
          {"stgcn_block", "gwn_block", "dcgru_block", "mtgnn_block"}};
}

bool IsParametricOp(const std::string& op_name) {
  return op_name != "zero" && op_name != "identity";
}

}  // namespace autocts::core
