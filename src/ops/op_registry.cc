#include "ops/op_registry.h"

#include "ops/attention_ops.h"
#include "ops/gcn_ops.h"
#include "ops/rnn_ops.h"
#include "ops/simple_ops.h"
#include "ops/st_blocks.h"
#include "ops/temporal_conv_ops.h"

namespace autocts::ops {

OpRegistry& OpRegistry::Global() {
  static OpRegistry* registry = new OpRegistry();
  return *registry;
}

OpRegistry::OpRegistry() {
  // The built-in operators of Table 1 plus the two non-parametric ones.
  Register("zero", [](const OpContext&) -> StOperatorPtr {
    return std::make_unique<ZeroOp>();
  });
  Register("identity", [](const OpContext&) -> StOperatorPtr {
    return std::make_unique<IdentityOp>();
  });
  Register("conv1d", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<Conv1dOp>(context);
  });
  Register("gdcc", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<GdccOp>(context);
  });
  Register("lstm", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<LstmOp>(context);
  });
  Register("gru", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<GruOp>(context);
  });
  Register("trans_t", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<TransformerTOp>(context);
  });
  Register("inf_t", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<InformerTOp>(context);
  });
  Register("cheb_gcn", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<ChebGcnOp>(context);
  });
  Register("dgcn", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<DgcnOp>(context);
  });
  Register("trans_s", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<TransformerSOp>(context);
  });
  Register("inf_s", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<InformerSOp>(context);
  });
  // The human-designed ST-blocks of the "macro only" ablation.
  Register("stgcn_block", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<StgcnBlock>(context);
  });
  Register("gwn_block", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<GwnBlock>(context);
  });
  Register("dcgru_block", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<DcgruBlock>(context);
  });
  Register("mtgnn_block", [](const OpContext& context) -> StOperatorPtr {
    return std::make_unique<MtgnnBlock>(context);
  });
}

void OpRegistry::Register(const std::string& name, OpFactory factory) {
  AUTOCTS_CHECK(!Contains(name)) << "duplicate operator name: " << name;
  factories_.emplace_back(name, std::move(factory));
}

bool OpRegistry::Contains(const std::string& name) const {
  for (const auto& [known, factory] : factories_) {
    if (known == name) return true;
  }
  return false;
}

StatusOr<StOperatorPtr> OpRegistry::Create(const std::string& name,
                                           const OpContext& context) const {
  for (const auto& [known, factory] : factories_) {
    if (known == name) return factory(context);
  }
  return Status::NotFound("unknown operator: " + name);
}

std::vector<std::string> OpRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

StOperatorPtr CreateOp(const std::string& name, const OpContext& context) {
  StatusOr<StOperatorPtr> result = OpRegistry::Global().Create(name, context);
  AUTOCTS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace autocts::ops
