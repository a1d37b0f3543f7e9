// Differentiable operations on Variable, mirroring tensor/tensor_ops.h.
// All functions build tape nodes; gradients flow to inputs that require
// them. Binary ops broadcast like their tensor counterparts and reduce
// gradients back to the operand shapes.
#ifndef AUTOCTS_AUTOGRAD_VARIABLE_OPS_H_
#define AUTOCTS_AUTOGRAD_VARIABLE_OPS_H_

#include <string>
#include <vector>

#include "autograd/variable.h"

namespace autocts::ag {

// Every op label this translation unit passes to MakeNode, in registration
// order. Labels name tape nodes for the numeric-trace attribution, tracer
// spans (forward and backward), and the grad-check sweep in
// tests/autograd_test.cc — which fails when a registered label has no
// finite-difference entry, so a new labeled op cannot ship unchecked.
const std::vector<std::string>& RegisteredOpLabels();

// Elementwise binary (broadcasting).
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// Scalar variants.
Variable AddScalar(const Variable& a, double value);
Variable MulScalar(const Variable& a, double value);

// Elementwise unary.
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Abs(const Variable& a);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Relu(const Variable& a);
// Elementwise power with constant exponent.
Variable PowScalar(const Variable& a, double exponent);

// Batched matrix multiply with broadcasting over leading dims.
Variable MatMul(const Variable& a, const Variable& b);

// Reductions.
Variable Sum(const Variable& a, int64_t axis, bool keepdim = false);
Variable Mean(const Variable& a, int64_t axis, bool keepdim = false);
// Reduce to a scalar (shape [1]).
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

// Numerically stable softmax along `axis`.
Variable Softmax(const Variable& a, int64_t axis);
// Softmax with a temperature divisor: softmax(a / tau) (Section 3.2.2 of
// the AutoCTS paper).
Variable SoftmaxWithTemperature(const Variable& a, int64_t axis, double tau);

// Shape manipulation.
Variable Reshape(const Variable& a, Shape new_shape);
Variable Permute(const Variable& a, const std::vector<int64_t>& perm);
Variable Transpose(const Variable& a, int64_t axis_a, int64_t axis_b);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t length);
Variable Pad(const Variable& a, int64_t axis, int64_t before, int64_t after);

// A non-differentiable constant wrapper.
Variable Constant(Tensor value);

// Losses. Predictions and targets must have equal shapes.
Variable L1Loss(const Variable& prediction, const Variable& target);
Variable MseLoss(const Variable& prediction, const Variable& target);

}  // namespace autocts::ag

#endif  // AUTOCTS_AUTOGRAD_VARIABLE_OPS_H_
