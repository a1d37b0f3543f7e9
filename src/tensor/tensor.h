// Dense row-major N-dimensional tensor of doubles.
//
// Design notes:
//  - Storage is a shared, contiguous buffer; Reshape shares the buffer,
//    every other shape-changing operation copies. This keeps aliasing rules
//    trivial for the autograd layer built on top.
//  - Buffers come from the size-bucketed recycling pool in
//    common/buffer_pool.h (AUTOCTS_TENSOR_POOL=0 falls back to plain heap
//    allocation). The default constructor zero-fills like a fresh
//    allocation; Uninitialized() skips the fill for kernels that overwrite
//    every element, and such kernels must honor that contract or pooled
//    and unpooled runs diverge.
//  - `double` is used throughout so finite-difference gradient checks in the
//    test suite are numerically stable (see DESIGN.md).
#ifndef AUTOCTS_TENSOR_TENSOR_H_
#define AUTOCTS_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/macros.h"
#include "common/random.h"

namespace autocts {

using Shape = std::vector<int64_t>;

// Returns the number of elements of a shape (product of dims; 1 for scalars).
int64_t NumElements(const Shape& shape);

// Row-major strides for `shape`.
std::vector<int64_t> RowMajorStrides(const Shape& shape);

// Human-readable shape, e.g. "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

// Dense tensor. Copying a Tensor is cheap (shares the buffer); use Clone()
// for a deep copy. Mutating a Tensor through data() mutates all copies.
class Tensor {
 public:
  // An empty (rank-0, zero-element) placeholder tensor.
  Tensor();
  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  // Tensor of the given shape with UNSPECIFIED contents (pooled storage
  // keeps its recycled values). Only for callers that write every element
  // before any read; everyone else wants Tensor(shape) / Zeros().
  static Tensor Uninitialized(Shape shape);

  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, double value);
  // A scalar (shape [1]) tensor.
  static Tensor Scalar(double value);
  // Takes ownership of `values`; requires values.size() == NumElements(shape).
  static Tensor FromVector(Shape shape, std::vector<double> values);
  // Uniform random values in [lo, hi).
  static Tensor Rand(Shape shape, Rng* rng, double lo = 0.0, double hi = 1.0);
  // Normal random values.
  static Tensor Randn(Shape shape, Rng* rng, double mean = 0.0,
                      double stddev = 1.0);
  // [n, n] identity matrix.
  static Tensor Eye(int64_t n);
  // 1-D tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n);

  bool defined() const { return buffer_.defined(); }
  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t axis) const;
  int64_t size() const { return size_; }

  double* data() { return buffer_.data(); }
  const double* data() const { return buffer_.data(); }
  // True when no other tensor (copy or Reshape view) shares the buffer.
  bool unique() const { return buffer_.unique(); }

  // Element access by multi-index (slow; intended for tests and setup code).
  double& At(const std::vector<int64_t>& index);
  double At(const std::vector<int64_t>& index) const;

  // Value of a single-element tensor.
  double item() const;

  // Deep copy.
  Tensor Clone() const;

  // Overwrites this tensor's elements with `other`'s (shapes must match).
  // Reuses this tensor's buffer — the in-place counterpart of Clone().
  void CopyFrom(const Tensor& other);

  // Returns a tensor viewing the same buffer with a new shape.
  // Requires NumElements(new_shape) == size(). One dim may be -1 (inferred).
  Tensor Reshape(Shape new_shape) const;

  // Copying permutation of axes; perm must be a permutation of [0, ndim).
  Tensor Permute(const std::vector<int64_t>& perm) const;

  // Swaps two axes (copying).
  Tensor Transpose(int64_t axis_a, int64_t axis_b) const;

  // Fills every element with `value`.
  void Fill(double value);

  // True if shapes are equal and all elements differ by at most `tolerance`.
  bool AllClose(const Tensor& other, double tolerance = 1e-9) const;

  // Debug representation including shape and (truncated) values.
  std::string ToString() const;

 private:
  BufferRef buffer_;
  Shape shape_;
  int64_t size_ = 0;
};

}  // namespace autocts

#endif  // AUTOCTS_TENSOR_TENSOR_H_
