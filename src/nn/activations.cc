#include "nn/activations.h"

namespace autocts::nn {

Variable Glu(const Variable& x) {
  const int64_t channels = x.dim(-1);
  AUTOCTS_CHECK_EQ(channels % 2, 0) << "GLU needs an even channel count";
  const int64_t half = channels / 2;
  const Variable a = ag::Slice(x, /*axis=*/-1, 0, half);
  const Variable b = ag::Slice(x, /*axis=*/-1, half, half);
  return ag::Mul(a, ag::Sigmoid(b));
}

}  // namespace autocts::nn
