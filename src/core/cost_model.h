// Operator cost model and efficiency-aware search regularization.
//
// This implements the paper's stated future-work direction (Section 6):
// "include model efficiency as an additional criterion into the search
// strategy to automatically identify both accurate and efficient models".
//
// Each operator gets a relative cost (a FLOP-count proxy per [B,T,N,D]
// forward, normalized so identity = 0 and GDCC = 1). During the search the
// expected cost of the supernet under the current architecture
// distribution,
//
//   E[cost] = sum_cells sum_pairs sum_o softmax(alpha)_o * cost(o),
//
// is added to the architecture loss with weight lambda, steering the
// softmax mass toward cheaper operators without touching the weight
// updates. Differentiable end-to-end through the alpha softmax.
#ifndef AUTOCTS_CORE_COST_MODEL_H_
#define AUTOCTS_CORE_COST_MODEL_H_

#include <string>

#include "autograd/variable_ops.h"
#include "core/genotype.h"
#include "core/supernet.h"

namespace autocts::core {

// Relative forward cost of one operator application; every operator
// registered at start-up has an entry. CHECK-fails on unknown names,
// returns `default_cost` for registered custom operators.
double OperatorCost(const std::string& op_name, double default_cost = 1.0);

// Total relative cost of a derived architecture (sum over kept edges).
double GenotypeCost(const Genotype& genotype);

// Differentiable expected cost of `supernet` under its current alpha
// distribution at temperature tau (scalar Variable). Gradients flow into
// the alpha parameters only.
Variable ExpectedSupernetCost(const Supernet& supernet, double tau);

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_COST_MODEL_H_
