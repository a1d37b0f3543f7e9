#include "autograd/variable_ops.h"

#include <cmath>
#include <utility>

#include "common/trace.h"
#include "tensor/tensor_ops.h"

namespace autocts::ag {

namespace {

using internal::AccumulateGrad;
using internal::Node;

std::vector<std::string>& MutableOpLabels() {
  static std::vector<std::string>* labels = new std::vector<std::string>();
  return *labels;
}

// Registers `label` at static-initialization time so RegisteredOpLabels()
// enumerates exactly the labels this file actually uses: adding an op via
// the kOp* pattern below automatically enrolls it in the grad-check sweep.
const char* RegisterOpLabel(const char* label) {
  MutableOpLabels().push_back(label);
  return label;
}

// Op labels double as tape-node names (numeric-trace attribution), tracer
// span names (forward scope here, backward scope in Variable::Backward),
// and grad-check sweep keys. The pointers are process-lifetime, as the
// tracer requires.
const char* const kOpAdd = RegisterOpLabel("add");
const char* const kOpSub = RegisterOpLabel("sub");
const char* const kOpMul = RegisterOpLabel("mul");
const char* const kOpDiv = RegisterOpLabel("div");
const char* const kOpAddScalar = RegisterOpLabel("add_scalar");
const char* const kOpMulScalar = RegisterOpLabel("mul_scalar");
const char* const kOpExp = RegisterOpLabel("exp");
const char* const kOpLog = RegisterOpLabel("log");
const char* const kOpSqrt = RegisterOpLabel("sqrt");
const char* const kOpAbs = RegisterOpLabel("abs");
const char* const kOpTanh = RegisterOpLabel("tanh");
const char* const kOpSigmoid = RegisterOpLabel("sigmoid");
const char* const kOpRelu = RegisterOpLabel("relu");
const char* const kOpPowScalar = RegisterOpLabel("pow_scalar");
const char* const kOpMatMul = RegisterOpLabel("matmul");
const char* const kOpSum = RegisterOpLabel("sum");
const char* const kOpSumAll = RegisterOpLabel("sum_all");
const char* const kOpSoftmax = RegisterOpLabel("softmax");
const char* const kOpReshape = RegisterOpLabel("reshape");
const char* const kOpPermute = RegisterOpLabel("permute");
const char* const kOpConcat = RegisterOpLabel("concat");
const char* const kOpSlice = RegisterOpLabel("slice");
const char* const kOpPad = RegisterOpLabel("pad");

// Accumulates `g` into input slot `slot` of `node`, reducing over any
// broadcast axes first. By value, so a kernel result passed as a temporary
// reaches AccumulateGrad unshared and becomes the gradient without a copy.
void AccumulateReduced(Node* node, size_t slot, Tensor g) {
  Node* input = node->inputs[slot].get();
  if (!input->requires_grad) return;
  if (g.shape() != input->value.shape()) {
    g = ReduceTo(g, input->value.shape());
  }
  AccumulateGrad(input, std::move(g));
}

}  // namespace

const std::vector<std::string>& RegisteredOpLabels() {
  return MutableOpLabels();
}

Variable Add(const Variable& a, const Variable& b) {
  AUTOCTS_TRACE_SCOPE(kOpAdd);
  return MakeNode(autocts::Add(a.value(), b.value()), {a, b}, [](Node* node) {
    AccumulateReduced(node, 0, node->grad);
    AccumulateReduced(node, 1, node->grad);
  }, kOpAdd);
}

Variable Sub(const Variable& a, const Variable& b) {
  AUTOCTS_TRACE_SCOPE(kOpSub);
  return MakeNode(autocts::Sub(a.value(), b.value()), {a, b}, [](Node* node) {
    AccumulateReduced(node, 0, node->grad);
    AccumulateReduced(node, 1, autocts::Neg(node->grad));
  }, kOpSub);
}

Variable Mul(const Variable& a, const Variable& b) {
  AUTOCTS_TRACE_SCOPE(kOpMul);
  Tensor va = a.value();
  Tensor vb = b.value();
  return MakeNode(autocts::Mul(va, vb), {a, b}, [va, vb](Node* node) {
    AccumulateReduced(node, 0, autocts::Mul(node->grad, vb));
    AccumulateReduced(node, 1, autocts::Mul(node->grad, va));
  }, kOpMul);
}

Variable Div(const Variable& a, const Variable& b) {
  AUTOCTS_TRACE_SCOPE(kOpDiv);
  Tensor va = a.value();
  Tensor vb = b.value();
  return MakeNode(autocts::Div(va, vb), {a, b}, [va, vb](Node* node) {
    AccumulateReduced(node, 0, autocts::Div(node->grad, vb));
    AccumulateReduced(node, 1, autocts::Neg(autocts::Div(
        autocts::Mul(node->grad, va), autocts::Mul(vb, vb))));
  }, kOpDiv);
}

Variable AddScalar(const Variable& a, double value) {
  AUTOCTS_TRACE_SCOPE(kOpAddScalar);
  return MakeNode(autocts::AddScalar(a.value(), value), {a}, [](Node* node) {
    AccumulateReduced(node, 0, node->grad);
  }, kOpAddScalar);
}

Variable MulScalar(const Variable& a, double value) {
  AUTOCTS_TRACE_SCOPE(kOpMulScalar);
  return MakeNode(autocts::MulScalar(a.value(), value), {a},
                  [value](Node* node) {
                    AccumulateReduced(node, 0,
                                      autocts::MulScalar(node->grad, value));
                  }, kOpMulScalar);
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0); }

Variable Exp(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpExp);
  Tensor y = autocts::Exp(a.value());
  return MakeNode(y, {a}, [y](Node* node) {
    AccumulateReduced(node, 0, autocts::Mul(node->grad, y));
  }, kOpExp);
}

Variable Log(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpLog);
  Tensor va = a.value();
  return MakeNode(autocts::Log(va), {a}, [va](Node* node) {
    AccumulateReduced(node, 0, autocts::Div(node->grad, va));
  }, kOpLog);
}

Variable Sqrt(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpSqrt);
  Tensor y = autocts::Sqrt(a.value());
  return MakeNode(y, {a}, [y](Node* node) {
    AccumulateReduced(node, 0,
                      autocts::Div(autocts::MulScalar(node->grad, 0.5), y));
  }, kOpSqrt);
}

Variable Abs(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpAbs);
  Tensor va = a.value();
  return MakeNode(autocts::Abs(va), {a}, [va](Node* node) {
    const Tensor sign = autocts::Apply(
        va, [](double x) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
    AccumulateReduced(node, 0, autocts::Mul(node->grad, sign));
  }, kOpAbs);
}

Variable Tanh(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpTanh);
  Tensor y = autocts::Tanh(a.value());
  return MakeNode(y, {a}, [y](Node* node) {
    const Tensor one_minus_y2 =
        autocts::Apply(y, [](double v) { return 1.0 - v * v; });
    AccumulateReduced(node, 0, autocts::Mul(node->grad, one_minus_y2));
  }, kOpTanh);
}

Variable Sigmoid(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpSigmoid);
  Tensor y = autocts::Sigmoid(a.value());
  return MakeNode(y, {a}, [y](Node* node) {
    const Tensor dy = autocts::Apply(y, [](double v) { return v * (1.0 - v); });
    AccumulateReduced(node, 0, autocts::Mul(node->grad, dy));
  }, kOpSigmoid);
}

Variable Relu(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpRelu);
  Tensor va = a.value();
  return MakeNode(autocts::Relu(va), {a}, [va](Node* node) {
    const Tensor mask =
        autocts::Apply(va, [](double x) { return x > 0.0 ? 1.0 : 0.0; });
    AccumulateReduced(node, 0, autocts::Mul(node->grad, mask));
  }, kOpRelu);
}

Variable PowScalar(const Variable& a, double exponent) {
  AUTOCTS_TRACE_SCOPE(kOpPowScalar);
  Tensor va = a.value();
  return MakeNode(autocts::PowScalar(va, exponent), {a},
                  [va, exponent](Node* node) {
                    const Tensor dx = autocts::MulScalar(
                        autocts::PowScalar(va, exponent - 1.0), exponent);
                    AccumulateReduced(node, 0, autocts::Mul(node->grad, dx));
                  }, kOpPowScalar);
}

Variable MatMul(const Variable& a, const Variable& b) {
  AUTOCTS_TRACE_SCOPE(kOpMatMul);
  Tensor va = a.value();
  Tensor vb = b.value();
  return MakeNode(autocts::MatMul(va, vb), {a, b}, [va, vb](Node* node) {
    const Tensor bt = vb.Transpose(-2, -1);
    const Tensor at = va.Transpose(-2, -1);
    AccumulateReduced(node, 0, autocts::MatMul(node->grad, bt));
    AccumulateReduced(node, 1, autocts::MatMul(at, node->grad));
  }, kOpMatMul);
}

Variable Sum(const Variable& a, int64_t axis, bool keepdim) {
  AUTOCTS_TRACE_SCOPE(kOpSum);
  const Shape in_shape = a.shape();
  const int64_t rank = a.ndim();
  const int64_t norm_axis = axis < 0 ? axis + rank : axis;
  return MakeNode(autocts::Sum(a.value(), axis, keepdim), {a},
                  [in_shape, norm_axis, keepdim](Node* node) {
                    Tensor g = node->grad;
                    if (!keepdim) {
                      Shape keep = in_shape;
                      keep[norm_axis] = 1;
                      g = g.Reshape(keep);
                    }
                    AccumulateReduced(node, 0, BroadcastTo(g, in_shape));
                  }, kOpSum);
}

Variable Mean(const Variable& a, int64_t axis, bool keepdim) {
  const int64_t extent = a.dim(axis);
  return MulScalar(Sum(a, axis, keepdim), 1.0 / static_cast<double>(extent));
}

Variable SumAll(const Variable& a) {
  AUTOCTS_TRACE_SCOPE(kOpSumAll);
  const Shape in_shape = a.shape();
  return MakeNode(Tensor::Scalar(autocts::SumAll(a.value())), {a},
                  [in_shape](Node* node) {
                    AccumulateReduced(
                        node, 0, Tensor::Full(in_shape, node->grad.item()));
                  }, kOpSumAll);
}

Variable MeanAll(const Variable& a) {
  return MulScalar(SumAll(a), 1.0 / static_cast<double>(a.size()));
}

Variable Softmax(const Variable& a, int64_t axis) {
  return SoftmaxWithTemperature(a, axis, 1.0);
}

Variable SoftmaxWithTemperature(const Variable& a, int64_t axis, double tau) {
  AUTOCTS_TRACE_SCOPE(kOpSoftmax);
  AUTOCTS_CHECK_GT(tau, 0.0);
  const Tensor scaled = autocts::MulScalar(a.value(), 1.0 / tau);
  Tensor y = autocts::Softmax(scaled, axis);
  const int64_t norm_axis = axis < 0 ? axis + a.ndim() : axis;
  return MakeNode(y, {a}, [y, norm_axis, tau](Node* node) {
    // dx = (1/tau) * y * (g - sum(g * y, axis))
    const Tensor gy = autocts::Mul(node->grad, y);
    const Tensor total = autocts::Sum(gy, norm_axis, /*keepdim=*/true);
    AccumulateReduced(node, 0, autocts::MulScalar(
        autocts::Mul(y, autocts::Sub(node->grad, total)), 1.0 / tau));
  }, kOpSoftmax);
}

Variable Reshape(const Variable& a, Shape new_shape) {
  AUTOCTS_TRACE_SCOPE(kOpReshape);
  const Shape in_shape = a.shape();
  return MakeNode(a.value().Reshape(std::move(new_shape)), {a},
                  [in_shape](Node* node) {
                    AccumulateReduced(node, 0, node->grad.Reshape(in_shape));
                  }, kOpReshape);
}

Variable Permute(const Variable& a, const std::vector<int64_t>& perm) {
  AUTOCTS_TRACE_SCOPE(kOpPermute);
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  return MakeNode(a.value().Permute(perm), {a}, [inverse](Node* node) {
    AccumulateReduced(node, 0, node->grad.Permute(inverse));
  }, kOpPermute);
}

Variable Transpose(const Variable& a, int64_t axis_a, int64_t axis_b) {
  if (axis_a < 0) axis_a += a.ndim();
  if (axis_b < 0) axis_b += a.ndim();
  std::vector<int64_t> perm(a.ndim());
  for (int64_t i = 0; i < a.ndim(); ++i) perm[i] = i;
  std::swap(perm[axis_a], perm[axis_b]);
  return Permute(a, perm);
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  AUTOCTS_TRACE_SCOPE(kOpConcat);
  AUTOCTS_CHECK(!parts.empty());
  const int64_t norm_axis = axis < 0 ? axis + parts[0].ndim() : axis;
  std::vector<Tensor> values;
  std::vector<int64_t> extents;
  values.reserve(parts.size());
  for (const Variable& part : parts) {
    values.push_back(part.value());
    extents.push_back(part.dim(norm_axis));
  }
  return MakeNode(autocts::Concat(values, norm_axis), parts,
                  [norm_axis, extents](Node* node) {
                    int64_t offset = 0;
                    for (size_t i = 0; i < extents.size(); ++i) {
                      AccumulateReduced(
                          node, i,
                          autocts::Slice(node->grad, norm_axis, offset,
                                         extents[i]));
                      offset += extents[i];
                    }
                  }, kOpConcat);
}

Variable Slice(const Variable& a, int64_t axis, int64_t start,
               int64_t length) {
  AUTOCTS_TRACE_SCOPE(kOpSlice);
  const int64_t norm_axis = axis < 0 ? axis + a.ndim() : axis;
  const int64_t extent = a.dim(norm_axis);
  return MakeNode(
      autocts::Slice(a.value(), norm_axis, start, length), {a},
      [norm_axis, start, length, extent](Node* node) {
        AccumulateReduced(node, 0,
                          autocts::Pad(node->grad, norm_axis, start,
                                       extent - start - length));
      }, kOpSlice);
}

Variable Pad(const Variable& a, int64_t axis, int64_t before, int64_t after) {
  AUTOCTS_TRACE_SCOPE(kOpPad);
  const int64_t norm_axis = axis < 0 ? axis + a.ndim() : axis;
  const int64_t extent = a.dim(norm_axis);
  return MakeNode(autocts::Pad(a.value(), norm_axis, before, after), {a},
                  [norm_axis, before, extent](Node* node) {
                    AccumulateReduced(
                        node, 0,
                        autocts::Slice(node->grad, norm_axis, before, extent));
                  }, kOpPad);
}

Variable Constant(Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable L1Loss(const Variable& prediction, const Variable& target) {
  AUTOCTS_CHECK(prediction.shape() == target.shape());
  return MeanAll(Abs(Sub(prediction, target)));
}

Variable MseLoss(const Variable& prediction, const Variable& target) {
  AUTOCTS_CHECK(prediction.shape() == target.shape());
  const Variable diff = Sub(prediction, target);
  return MeanAll(Mul(diff, diff));
}

}  // namespace autocts::ag
