#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "tensor/strided_walk.h"

namespace autocts {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    AUTOCTS_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream stream;
  stream << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) stream << ", ";
    stream << shape[i];
  }
  stream << "]";
  return stream.str();
}

Tensor::Tensor() = default;

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  size_ = NumElements(shape_);
  buffer_ = BufferPool::Global().Acquire(size_);
}

Tensor Tensor::Uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.size_ = NumElements(t.shape_);
  t.buffer_ = BufferPool::Global().AcquireUninitialized(t.size_);
  return t;
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0); }

Tensor Tensor::Full(Shape shape, double value) {
  Tensor t = Uninitialized(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(double value) { return Full({1}, value); }

Tensor Tensor::FromVector(Shape shape, std::vector<double> values) {
  AUTOCTS_CHECK_EQ(NumElements(shape), static_cast<int64_t>(values.size()));
  Tensor t;
  t.shape_ = std::move(shape);
  t.size_ = static_cast<int64_t>(values.size());
  t.buffer_ = BufferPool::Global().Adopt(std::move(values));
  return t;
}

Tensor Tensor::Rand(Shape shape, Rng* rng, double lo, double hi) {
  Tensor t = Uninitialized(std::move(shape));
  for (int64_t i = 0; i < t.size_; ++i) t.data()[i] = rng->Uniform(lo, hi);
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng* rng, double mean, double stddev) {
  Tensor t = Uninitialized(std::move(shape));
  for (int64_t i = 0; i < t.size_; ++i) t.data()[i] = rng->Normal(mean, stddev);
  return t;
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t({n, n});
  for (int64_t i = 0; i < n; ++i) t.data()[i * n + i] = 1.0;
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t = Uninitialized({n});
  for (int64_t i = 0; i < n; ++i) t.data()[i] = static_cast<double>(i);
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  if (axis < 0) axis += ndim();
  AUTOCTS_CHECK_GE(axis, 0);
  AUTOCTS_CHECK_LT(axis, ndim());
  return shape_[axis];
}

double& Tensor::At(const std::vector<int64_t>& index) {
  AUTOCTS_CHECK_EQ(static_cast<int64_t>(index.size()), ndim());
  const std::vector<int64_t> strides = RowMajorStrides(shape_);
  int64_t offset = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    AUTOCTS_CHECK_GE(index[i], 0);
    AUTOCTS_CHECK_LT(index[i], shape_[i]);
    offset += index[i] * strides[i];
  }
  return data()[offset];
}

double Tensor::At(const std::vector<int64_t>& index) const {
  return const_cast<Tensor*>(this)->At(index);
}

double Tensor::item() const {
  AUTOCTS_CHECK_EQ(size_, 1) << "item() requires a single-element tensor";
  return data()[0];
}

Tensor Tensor::Clone() const {
  AUTOCTS_CHECK(defined());
  Tensor copy = Uninitialized(shape_);
  if (size_ > 0) {
    std::memcpy(copy.data(), data(), static_cast<size_t>(size_) * sizeof(double));
  }
  return copy;
}

void Tensor::CopyFrom(const Tensor& other) {
  AUTOCTS_CHECK(defined());
  AUTOCTS_CHECK(shape_ == other.shape_)
      << "CopyFrom " << ShapeToString(other.shape_) << " into "
      << ShapeToString(shape_);
  if (size_ > 0 && data() != other.data()) {
    std::memcpy(data(), other.data(), static_cast<size_t>(size_) * sizeof(double));
  }
}

Tensor Tensor::Reshape(Shape new_shape) const {
  AUTOCTS_CHECK(defined());
  int64_t inferred_axis = -1;
  int64_t known = 1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      AUTOCTS_CHECK_EQ(inferred_axis, -1) << "at most one -1 dim";
      inferred_axis = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (inferred_axis >= 0) {
    AUTOCTS_CHECK_GT(known, 0);
    AUTOCTS_CHECK_EQ(size_ % known, 0)
        << "cannot infer dim for " << ShapeToString(new_shape);
    new_shape[inferred_axis] = size_ / known;
  }
  AUTOCTS_CHECK_EQ(NumElements(new_shape), size_)
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  Tensor view;
  view.buffer_ = buffer_;
  view.shape_ = std::move(new_shape);
  view.size_ = size_;
  return view;
}

Tensor Tensor::Permute(const std::vector<int64_t>& perm) const {
  AUTOCTS_CHECK_EQ(static_cast<int64_t>(perm.size()), ndim());
  std::vector<bool> seen(perm.size(), false);
  Shape out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    AUTOCTS_CHECK_GE(perm[i], 0);
    AUTOCTS_CHECK_LT(perm[i], ndim());
    AUTOCTS_CHECK(!seen[perm[i]]) << "perm is not a permutation";
    seen[perm[i]] = true;
    out_shape[i] = shape_[perm[i]];
  }
  // A strided gather: output axis i reads the input with the stride of
  // input axis perm[i].
  const std::vector<int64_t> in_strides = RowMajorStrides(shape_);
  internal::AxisScratch strides(ndim());
  for (int64_t axis = 0; axis < ndim(); ++axis) {
    strides[axis] = in_strides[perm[axis]];
  }
  Tensor out = Uninitialized(out_shape);
  const internal::StridedWalk walk(out_shape, strides.data(),
                                   /*stride_b=*/nullptr);
  internal::GatherRuns(walk, data(), out.data(), 0, size_);
  return out;
}

Tensor Tensor::Transpose(int64_t axis_a, int64_t axis_b) const {
  if (axis_a < 0) axis_a += ndim();
  if (axis_b < 0) axis_b += ndim();
  std::vector<int64_t> perm(ndim());
  for (int64_t i = 0; i < ndim(); ++i) perm[i] = i;
  std::swap(perm[axis_a], perm[axis_b]);
  return Permute(perm);
}

void Tensor::Fill(double value) {
  AUTOCTS_CHECK(defined());
  for (int64_t i = 0; i < size_; ++i) data()[i] = value;
}

bool Tensor::AllClose(const Tensor& other, double tolerance) const {
  if (shape_ != other.shape_) return false;
  for (int64_t i = 0; i < size_; ++i) {
    if (std::abs(data()[i] - other.data()[i]) > tolerance) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  std::ostringstream stream;
  stream << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t limit = std::min<int64_t>(size_, 16);
  for (int64_t i = 0; i < limit; ++i) {
    if (i > 0) stream << ", ";
    stream << data()[i];
  }
  if (size_ > limit) stream << ", ...";
  stream << "}";
  return stream.str();
}

}  // namespace autocts
