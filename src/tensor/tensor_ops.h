// Dense numeric kernels on Tensor. All functions return new tensors; none
// mutate their inputs (except the explicitly named *InPlace helpers).
//
// Binary operations follow NumPy broadcasting rules (shapes aligned on the
// right; size-1 dims stretch).
#ifndef AUTOCTS_TENSOR_TENSOR_OPS_H_
#define AUTOCTS_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "common/parallel.h"
#include "tensor/tensor.h"

namespace autocts {

// Fixed ParallelFor chunk size of the elementwise kernels. Chunk boundaries
// depend only on the element count (see common/parallel.h).
inline constexpr int64_t kElementwiseGrain = 16384;

// Returns the broadcast result shape of `a` and `b`; CHECK-fails if the
// shapes are incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

// Elementwise binary operations with broadcasting.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// Elementwise operations with a scalar.
Tensor AddScalar(const Tensor& a, double value);
Tensor MulScalar(const Tensor& a, double value);
Tensor PowScalar(const Tensor& a, double exponent);

// Elementwise unary operations.
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

// Returns fn(x) for every element x of `a` (not differentiable). The
// unary kernels above and the autograd layer's backward closures use it;
// `fn` is a template parameter, so it inlines into the loop.
template <typename Fn>
Tensor Apply(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const double* pa = a.data();
  double* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
  });
  return out;
}

// Batched matrix multiplication: a [..., m, k] x b [..., k, n] -> [..., m, n]
// with broadcasting over the leading (batch) dimensions. When b is 2-D (a
// weight), a's leading dims fold into m and the call is one [rows, k] x
// [k, n] product. Cache-blocked 4x4 register tiles, parallelized over
// 4-row blocks; on x86-64 the tile kernel has an AVX2 clone picked at load
// time. Bit-identical to MatMulNaive: every output sums its k terms in the
// same ascending order, and neither clone fuses a multiply with an add.
Tensor MatMul(const Tensor& a, const Tensor& b);

// Unblocked serial reference implementation of MatMul, kept for parity
// tests and benchmark baselines.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);

// Reductions. `axis` may be negative. With keepdim the reduced axis stays as
// size 1; otherwise it is removed (scalars become shape [1]).
Tensor Sum(const Tensor& a, int64_t axis, bool keepdim = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdim = false);
Tensor Max(const Tensor& a, int64_t axis, bool keepdim = false);
double SumAll(const Tensor& a);
double MeanAll(const Tensor& a);
double MaxAll(const Tensor& a);
double MinAll(const Tensor& a);

// Numerically stable softmax along `axis`.
Tensor Softmax(const Tensor& a, int64_t axis);

// Concatenates tensors along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis);

// Slice of length `length` starting at `start` along `axis` (copying).
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t length);

// Zero padding along `axis`: `before` leading and `after` trailing zeros.
Tensor Pad(const Tensor& a, int64_t axis, int64_t before, int64_t after);

// Materializes `a` broadcast to `target` shape.
Tensor BroadcastTo(const Tensor& a, const Shape& target);

// Sums `a` down to `target` shape (the adjoint of BroadcastTo); used by the
// autograd layer to reduce gradients of broadcast operands.
Tensor ReduceTo(const Tensor& a, const Shape& target);

// a += b (shapes must match exactly).
void AddInPlace(Tensor* a, const Tensor& b);
// a *= value.
void ScaleInPlace(Tensor* a, double value);

// Sum of squared elements (== Norm(a)^2, in one pass and without the sqrt
// round-trip).
double SumSquares(const Tensor& a);

// Frobenius / L2 norm of all elements.
double Norm(const Tensor& a);

}  // namespace autocts

#endif  // AUTOCTS_TENSOR_TENSOR_OPS_H_
