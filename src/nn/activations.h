// Activation helpers beyond the elementwise ops in autograd/variable_ops.h.
#ifndef AUTOCTS_NN_ACTIVATIONS_H_
#define AUTOCTS_NN_ACTIVATIONS_H_

#include "autograd/variable_ops.h"

namespace autocts::nn {

// Gated linear unit over the last dim: splits x = [a, b] in halves and
// returns a * sigmoid(b). Requires an even last dimension.
Variable Glu(const Variable& x);

}  // namespace autocts::nn

#endif  // AUTOCTS_NN_ACTIVATIONS_H_
