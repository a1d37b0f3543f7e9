// Internal to autocts_tensor: the strided walk shared by the broadcasting
// binary kernels, BroadcastTo and Tensor::Permute.
//
// Each of those kernels writes a dense row-major output and reads one or two
// operands through a per-axis element stride (0 on a broadcast axis, the
// permuted stride for Permute). The walk first simplifies that layout:
// size-1 axes go, and adjacent axes merge wherever every operand's stride
// continues across them. It then visits the output in runs along the
// innermost remaining axis, so the per-element work is a plain loop with
// fixed operand strides and the multi-index is carried once per run, not
// once per element. Which element reads which operand value is unchanged,
// so every kernel's output stays bit-identical to a per-element walk.
#ifndef AUTOCTS_TENSOR_STRIDED_WALK_H_
#define AUTOCTS_TENSOR_STRIDED_WALK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace autocts::internal {

// Zero-initialized per-axis scratch (strides, multi-indices) for the kernel
// hot paths. Inline storage covers every rank this codebase produces; a
// hypothetical deeper tensor spills to the heap rather than corrupting the
// stack, so correctness never depends on the inline bound.
class AxisScratch {
 public:
  explicit AxisScratch(int64_t size) : size_(size) {
    if (size_ > kInlineRank) {
      heap_.resize(static_cast<size_t>(size_));
      ptr_ = heap_.data();
    }
    std::fill(ptr_, ptr_ + size_, int64_t{0});
  }
  AxisScratch(const AxisScratch&) = delete;
  AxisScratch& operator=(const AxisScratch&) = delete;

  int64_t* data() { return ptr_; }
  const int64_t* data() const { return ptr_; }
  int64_t& operator[](int64_t i) { return ptr_[i]; }
  int64_t operator[](int64_t i) const { return ptr_[i]; }
  int64_t size() const { return size_; }

 private:
  static constexpr int64_t kInlineRank = 8;
  int64_t inline_[kInlineRank];
  std::vector<int64_t> heap_;
  int64_t* ptr_ = inline_;
  int64_t size_;
};

// The simplified layout of a dense output of `shape` read through operand
// strides `stride_a` and `stride_b` (one per axis of `shape`; a null
// `stride_b` means no second operand).
class StridedWalk {
 public:
  StridedWalk(const Shape& shape, const int64_t* stride_a,
              const int64_t* stride_b)
      : extent_(std::max<int64_t>(1, static_cast<int64_t>(shape.size()))),
        stride_a_(extent_.size()),
        stride_b_(extent_.size()) {
    for (size_t axis = 0; axis < shape.size(); ++axis) {
      const int64_t extent = shape[axis];
      if (extent == 1) continue;
      const int64_t a = stride_a[axis];
      const int64_t b = stride_b == nullptr ? 0 : stride_b[axis];
      if (rank_ > 0 && stride_a_[rank_ - 1] == a * extent &&
          stride_b_[rank_ - 1] == b * extent) {
        extent_[rank_ - 1] *= extent;
        stride_a_[rank_ - 1] = a;
        stride_b_[rank_ - 1] = b;
      } else {
        extent_[rank_] = extent;
        stride_a_[rank_] = a;
        stride_b_[rank_] = b;
        ++rank_;
      }
    }
    if (rank_ == 0) {  // a single element: one run of length 1
      extent_[0] = 1;
      rank_ = 1;
    }
  }

  // Operand strides along the innermost axis, i.e. within one run.
  int64_t inner_stride_a() const { return stride_a_[rank_ - 1]; }
  int64_t inner_stride_b() const { return stride_b_[rank_ - 1]; }

  // Calls run(flat, offset_a, offset_b, length) for the runs that cover the
  // output elements [lo, hi) in ascending order: output elements
  // flat .. flat + length - 1 read operand a at offset_a + i * inner
  // stride (likewise b). Seeking to `lo` is O(rank), so a chunked
  // ParallelFor pays no per-chunk rescan.
  template <typename Run>
  void ForEachRun(int64_t lo, int64_t hi, Run run) const {
    if (lo >= hi) return;
    const int64_t inner = rank_ - 1;
    AxisScratch index(rank_);
    int64_t offset_a = 0;
    int64_t offset_b = 0;
    int64_t rem = lo;
    for (int64_t axis = inner; axis >= 0; --axis) {
      index[axis] = rem % extent_[axis];
      rem /= extent_[axis];
      offset_a += index[axis] * stride_a_[axis];
      offset_b += index[axis] * stride_b_[axis];
    }
    for (int64_t flat = lo; flat < hi;) {
      const int64_t length = std::min(extent_[inner] - index[inner], hi - flat);
      run(flat, offset_a, offset_b, length);
      flat += length;
      index[inner] += length;
      offset_a += length * stride_a_[inner];
      offset_b += length * stride_b_[inner];
      for (int64_t axis = inner; axis > 0 && index[axis] == extent_[axis];
           --axis) {
        index[axis] = 0;
        offset_a += stride_a_[axis - 1] - extent_[axis] * stride_a_[axis];
        offset_b += stride_b_[axis - 1] - extent_[axis] * stride_b_[axis];
        ++index[axis - 1];
      }
    }
  }

 private:
  int64_t rank_ = 0;
  AxisScratch extent_;
  AxisScratch stride_a_;
  AxisScratch stride_b_;
};

// Writes output elements [lo, hi) of `walk` from operand a at `src`: a
// contiguous run copies, a stride-0 run fills, any other run gathers.
inline void GatherRuns(const StridedWalk& walk, const double* src,
                       double* dst, int64_t lo, int64_t hi) {
  const int64_t stride = walk.inner_stride_a();
  walk.ForEachRun(lo, hi, [&](int64_t flat, int64_t offset, int64_t,
                              int64_t length) {
    const double* from = src + offset;
    double* to = dst + flat;
    if (stride == 1) {
      std::copy(from, from + length, to);
    } else if (stride == 0) {
      std::fill(to, to + length, *from);
    } else {
      for (int64_t i = 0; i < length; ++i) to[i] = from[i * stride];
    }
  });
}

}  // namespace autocts::internal

#endif  // AUTOCTS_TENSOR_STRIDED_WALK_H_
