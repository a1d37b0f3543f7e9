#include "tensor/tensor_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/parallel.h"
#include "tensor/strided_walk.h"

namespace autocts {
namespace {

using internal::AxisScratch;
using internal::StridedWalk;

// Fixed chunk sizes for ParallelFor (kElementwiseGrain is in the header).
// These are part of the determinism contract: reductions combine per-chunk
// partials in chunk order, so chunk boundaries must depend only on problem
// extents (see common/parallel.h).
constexpr int64_t kReduceGrain = 8192;
constexpr int64_t kCopyGrain = 16384;

// Strides of `shape` expanded to broadcast against `out_shape`: axes of size
// 1 (or missing on the left) get stride 0. Writes into `result`, which must
// hold out_shape.size() zeroed entries (an AxisScratch).
void BroadcastStridesInto(const Shape& shape, const Shape& out_shape,
                          int64_t* result) {
  const int64_t out_rank = static_cast<int64_t>(out_shape.size());
  const int64_t rank = static_cast<int64_t>(shape.size());
  AxisScratch strides(rank);
  int64_t stride = 1;
  for (int64_t i = rank - 1; i >= 0; --i) {
    strides[i] = stride;
    stride *= shape[i];
  }
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t out_axis = out_rank - rank + i;
    if (shape[i] != 1) {
      AUTOCTS_CHECK_EQ(shape[i], out_shape[out_axis])
          << "broadcast mismatch " << ShapeToString(shape) << " vs "
          << ShapeToString(out_shape);
      result[out_axis] = strides[i];
    }
  }
}

template <typename Fn>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fn fn) {
  if (a.shape() == b.shape()) {  // Fast path: no broadcasting.
    Tensor out = Tensor::Uninitialized(a.shape());
    const double* pa = a.data();
    const double* pb = b.data();
    double* po = out.data();
    ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
    });
    return out;
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  const int64_t out_rank = static_cast<int64_t>(out_shape.size());
  AxisScratch sa(out_rank);
  AxisScratch sb(out_rank);
  BroadcastStridesInto(a.shape(), out_shape, sa.data());
  BroadcastStridesInto(b.shape(), out_shape, sb.data());
  const StridedWalk walk(out_shape, sa.data(), sb.data());
  const int64_t inner_a = walk.inner_stride_a();
  const int64_t inner_b = walk.inner_stride_b();
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  // One loop per inner-stride pattern: (1,1) for operands that share the
  // inner axis, (1,0) and (0,1) for bias adds, [1] weights and per-channel
  // operands, and a strided loop for anything else.
  ParallelFor(0, out.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    walk.ForEachRun(lo, hi, [&](int64_t flat, int64_t oa, int64_t ob,
                                int64_t length) {
      const double* x = pa + oa;
      const double* y = pb + ob;
      double* __restrict__ dst = po + flat;
      if (inner_a == 1 && inner_b == 1) {
        for (int64_t i = 0; i < length; ++i) dst[i] = fn(x[i], y[i]);
      } else if (inner_a == 1 && inner_b == 0) {
        const double yv = *y;
        for (int64_t i = 0; i < length; ++i) dst[i] = fn(x[i], yv);
      } else if (inner_a == 0 && inner_b == 1) {
        const double xv = *x;
        for (int64_t i = 0; i < length; ++i) dst[i] = fn(xv, y[i]);
      } else {
        for (int64_t i = 0; i < length; ++i) {
          dst[i] = fn(x[i * inner_a], y[i * inner_b]);
        }
      }
    });
  });
  return out;
}

int64_t NormalizeAxis(int64_t axis, int64_t rank) {
  if (axis < 0) axis += rank;
  AUTOCTS_CHECK_GE(axis, 0);
  AUTOCTS_CHECK_LT(axis, rank);
  return axis;
}

// Decomposes `shape` around `axis` into (outer, axis_size, inner) extents so
// reductions can run as three nested loops.
void AxisExtents(const Shape& shape, int64_t axis, int64_t* outer,
                 int64_t* mid, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < axis; ++i) *outer *= shape[i];
  *mid = shape[axis];
  for (int64_t i = axis + 1; i < static_cast<int64_t>(shape.size()); ++i) {
    *inner *= shape[i];
  }
}

Shape ReducedShape(const Shape& shape, int64_t axis, bool keepdim) {
  Shape out = shape;
  if (keepdim) {
    out[axis] = 1;
  } else {
    out.erase(out.begin() + axis);
    if (out.empty()) out.push_back(1);
  }
  return out;
}

// Runs fn(o, ilo, ihi) over chunks of the flattened (outer x inner) output
// space of an axis reduction, splitting chunks at `o` boundaries so each
// call stays within one outer slice. Every output element is written by
// exactly one chunk, and per-element accumulation over the reduced axis is
// in ascending order inside fn — deterministic for any thread count.
template <typename Fn>
void ParallelOverReducedOutput(int64_t outer, int64_t inner, Fn fn) {
  ParallelFor(0, outer * inner, kReduceGrain, [&](int64_t lo, int64_t hi) {
    int64_t flat = lo;
    while (flat < hi) {
      const int64_t o = flat / inner;
      const int64_t ilo = flat - o * inner;
      const int64_t ihi = std::min(inner, ilo + (hi - flat));
      fn(o, ilo, ihi);
      flat += ihi - ilo;
    }
  });
}

}  // namespace

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.size(), b.size());
  Shape out(rank, 1);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t da =
        i < static_cast<int64_t>(a.size()) ? a[a.size() - 1 - i] : 1;
    const int64_t db =
        i < static_cast<int64_t>(b.size()) ? b[b.size() - 1 - i] : 1;
    AUTOCTS_CHECK(da == db || da == 1 || db == 1)
        << "incompatible shapes " << ShapeToString(a) << " and "
        << ShapeToString(b);
    out[rank - 1 - i] = std::max(da, db);
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](double x, double y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](double x, double y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](double x, double y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](double x, double y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](double x, double y) { return std::max(x, y); });
}

Tensor AddScalar(const Tensor& a, double value) {
  return Apply(a, [value](double x) { return x + value; });
}
Tensor MulScalar(const Tensor& a, double value) {
  return Apply(a, [value](double x) { return x * value; });
}
Tensor PowScalar(const Tensor& a, double exponent) {
  return Apply(a, [exponent](double x) { return std::pow(x, exponent); });
}

Tensor Neg(const Tensor& a) {
  return Apply(a, [](double x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return Apply(a, [](double x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return Apply(a, [](double x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return Apply(a, [](double x) { return std::sqrt(x); });
}
Tensor Abs(const Tensor& a) {
  return Apply(a, [](double x) { return std::abs(x); });
}
Tensor Tanh(const Tensor& a) {
  return Apply(a, [](double x) { return std::tanh(x); });
}
Tensor Sigmoid(const Tensor& a) {
  return Apply(a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}
Tensor Relu(const Tensor& a) {
  // x > 0.0 ? x : 0.0 without a data-dependent branch: the mask keeps every
  // bit of a positive x and clears all others, so NaN and -0.0 give +0.0
  // exactly as the comparison does.
  return Apply(a, [](double x) {
    return std::bit_cast<double>(std::bit_cast<uint64_t>(x) &
                                 -static_cast<uint64_t>(x > 0.0));
  });
}

namespace {

// Shared shape/stride setup for the matmul variants.
struct MatMulPlan {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  int64_t num_batches = 0;
  Shape out_shape;
  // Per-batch matrix offsets (in units of whole matrices) for a and b,
  // following broadcast over the leading dims.
  std::vector<int64_t> a_offset;
  std::vector<int64_t> b_offset;
};

// With `fold_rows` and a 2-D b, a's leading dims fold into m: a is dense
// row-major, so its batch matrices are consecutive rows of one [rows, k]
// matrix and the whole call is a single product.
MatMulPlan PlanMatMul(const Tensor& a, const Tensor& b, bool fold_rows) {
  AUTOCTS_CHECK_GE(a.ndim(), 2);
  AUTOCTS_CHECK_GE(b.ndim(), 2);
  MatMulPlan plan;
  plan.m = a.dim(-2);
  plan.k = a.dim(-1);
  plan.n = b.dim(-1);
  AUTOCTS_CHECK_EQ(plan.k, b.dim(-2))
      << "matmul inner dims " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  if (fold_rows && b.ndim() == 2) {
    plan.out_shape = a.shape();
    plan.out_shape.back() = plan.n;
    plan.m = NumElements(Shape(a.shape().begin(), a.shape().end() - 1));
    plan.num_batches = 1;
    plan.a_offset = {0};
    plan.b_offset = {0};
    return plan;
  }
  const Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  const Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  const Shape batch = BroadcastShapes(a_batch, b_batch);
  plan.out_shape = batch;
  plan.out_shape.push_back(plan.m);
  plan.out_shape.push_back(plan.n);
  plan.num_batches = NumElements(batch);
  const int64_t batch_rank = static_cast<int64_t>(batch.size());
  AxisScratch sa(batch_rank);
  AxisScratch sb(batch_rank);
  BroadcastStridesInto(a_batch, batch, sa.data());
  BroadcastStridesInto(b_batch, batch, sb.data());
  plan.a_offset.resize(plan.num_batches);
  plan.b_offset.resize(plan.num_batches);
  AxisScratch index(batch_rank);
  int64_t oa = 0;
  int64_t ob = 0;
  for (int64_t batch_idx = 0; batch_idx < plan.num_batches; ++batch_idx) {
    plan.a_offset[batch_idx] = oa;
    plan.b_offset[batch_idx] = ob;
    for (int64_t axis = batch_rank - 1; axis >= 0; --axis) {
      ++index[axis];
      oa += sa[axis];
      ob += sb[axis];
      if (index[axis] < batch[axis]) break;
      index[axis] = 0;
      oa -= sa[axis] * batch[axis];
      ob -= sb[axis] * batch[axis];
    }
  }
  return plan;
}

// Rows of A per parallel work item; also the register-tile height.
constexpr int64_t kRowBlock = 4;

// On x86-64 the micro-kernel is compiled twice, for AVX2 and for the
// baseline ISA, and the loader picks one per CPU. GCC contracts a * b + c
// into a fused multiply-add whenever the target has one, even in ISO C++
// mode, so neither target may enable FMA: then both clones round every
// multiply and every add separately, like MatMulNaive. ThreadSanitizer
// builds keep the baseline kernel only: the clones' resolver runs before
// the TSan runtime is up, and its instrumentation crashes the process.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define AUTOCTS_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define AUTOCTS_KERNEL_CLONES
#endif

// C[rows x n] += A-rows[rows x k] * B[k x n] with a 4x4 register tile: the
// 16 accumulators live in registers across the whole k loop and each loaded
// element of B feeds four multiply-adds. Every accumulator starts at +0.0
// and sums its k terms in strictly ascending order — the same order as the
// naive i-k-j loop — so blocked and naive results are bit-identical.
AUTOCTS_KERNEL_CLONES
void MicroKernel(const double* __restrict__ ma, const double* __restrict__ mb,
                 double* __restrict__ mo, int64_t rows, int64_t n, int64_t k) {
  int64_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* a0 = ma + (i + 0) * k;
    const double* a1 = ma + (i + 1) * k;
    const double* a2 = ma + (i + 2) * k;
    const double* a3 = ma + (i + 3) * k;
    int64_t j0 = 0;
    for (; j0 + 4 <= n; j0 += 4) {
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const double* __restrict__ rb = mb + kk * n + j0;
        const double b0 = rb[0], b1 = rb[1], b2 = rb[2], b3 = rb[3];
        const double va0 = a0[kk], va1 = a1[kk], va2 = a2[kk],
                     va3 = a3[kk];
        c00 += va0 * b0; c01 += va0 * b1; c02 += va0 * b2; c03 += va0 * b3;
        c10 += va1 * b0; c11 += va1 * b1; c12 += va1 * b2; c13 += va1 * b3;
        c20 += va2 * b0; c21 += va2 * b1; c22 += va2 * b2; c23 += va2 * b3;
        c30 += va3 * b0; c31 += va3 * b1; c32 += va3 * b2; c33 += va3 * b3;
      }
      double* r0 = mo + (i + 0) * n + j0;
      double* r1 = mo + (i + 1) * n + j0;
      double* r2 = mo + (i + 2) * n + j0;
      double* r3 = mo + (i + 3) * n + j0;
      r0[0] += c00; r0[1] += c01; r0[2] += c02; r0[3] += c03;
      r1[0] += c10; r1[1] += c11; r1[2] += c12; r1[3] += c13;
      r2[0] += c20; r2[1] += c21; r2[2] += c22; r2[3] += c23;
      r3[0] += c30; r3[1] += c31; r3[2] += c32; r3[3] += c33;
    }
    // Column tail (n % 4): one accumulator per (row, column).
    for (; j0 < n; ++j0) {
      double c0 = 0, c1 = 0, c2 = 0, c3 = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const double vb = mb[kk * n + j0];
        c0 += a0[kk] * vb;
        c1 += a1[kk] * vb;
        c2 += a2[kk] * vb;
        c3 += a3[kk] * vb;
      }
      mo[(i + 0) * n + j0] += c0;
      mo[(i + 1) * n + j0] += c1;
      mo[(i + 2) * n + j0] += c2;
      mo[(i + 3) * n + j0] += c3;
    }
  }
  // Row tail (rows % 4).
  for (; i < rows; ++i) {
    const double* row_a = ma + i * k;
    double* row_out = mo + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double va = row_a[kk];
      const double* __restrict__ rb = mb + kk * n;
      for (int64_t j = 0; j < n; ++j) row_out[j] += va * rb[j];
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const MatMulPlan plan = PlanMatMul(a, b, /*fold_rows=*/true);
  Tensor out(plan.out_shape);  // zero-initialized: MicroKernel accumulates
  const int64_t m = plan.m;
  const int64_t k = plan.k;
  const int64_t n = plan.n;
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  const int64_t a_mat = m * k;
  const int64_t b_mat = k * n;
  const int64_t o_mat = m * n;
  // Parallelize over batch x row-block work items: each item owns a
  // disjoint slab of kRowBlock output rows, so scheduling cannot change any
  // accumulation order.
  const int64_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
  ParallelFor(
      0, plan.num_batches * row_blocks, /*grain=*/1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t item = lo; item < hi; ++item) {
          const int64_t batch_idx = item / row_blocks;
          const int64_t i0 = (item - batch_idx * row_blocks) * kRowBlock;
          const int64_t rows = std::min(kRowBlock, m - i0);
          const double* ma = pa + plan.a_offset[batch_idx] * a_mat + i0 * k;
          const double* mb = pb + plan.b_offset[batch_idx] * b_mat;
          double* mo = po + batch_idx * o_mat + i0 * n;
          MicroKernel(ma, mb, mo, rows, n, k);
        }
      });
  return out;
}

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  const MatMulPlan plan = PlanMatMul(a, b, /*fold_rows=*/false);
  Tensor out(plan.out_shape);
  const int64_t m = plan.m;
  const int64_t k = plan.k;
  const int64_t n = plan.n;
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  for (int64_t batch_idx = 0; batch_idx < plan.num_batches; ++batch_idx) {
    const double* ma = pa + plan.a_offset[batch_idx] * m * k;
    const double* mb = pb + plan.b_offset[batch_idx] * k * n;
    double* mo = po + batch_idx * m * n;
    for (int64_t i = 0; i < m; ++i) {
      const double* row_a = ma + i * k;
      double* row_out = mo + i * n;
      for (int64_t kk = 0; kk < k; ++kk) {
        const double va = row_a[kk];
        const double* row_b = mb + kk * n;
        for (int64_t j = 0; j < n; ++j) row_out[j] += va * row_b[j];
      }
    }
  }
  return out;
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer, mid, inner;
  AxisExtents(a.shape(), axis, &outer, &mid, &inner);
  Tensor out(ReducedShape(a.shape(), axis, keepdim));
  const double* pa = a.data();
  double* po = out.data();
  ParallelOverReducedOutput(
      outer, inner, [&](int64_t o, int64_t ilo, int64_t ihi) {
        double* dst = po + o * inner;
        for (int64_t m = 0; m < mid; ++m) {
          const double* src = pa + (o * mid + m) * inner;
          for (int64_t i = ilo; i < ihi; ++i) dst[i] += src[i];
        }
      });
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, a.ndim());
  Tensor out = Sum(a, axis, keepdim);
  ScaleInPlace(&out, 1.0 / static_cast<double>(a.shape()[axis]));
  return out;
}

Tensor Max(const Tensor& a, int64_t axis, bool keepdim) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer, mid, inner;
  AxisExtents(a.shape(), axis, &outer, &mid, &inner);
  AUTOCTS_CHECK_GT(mid, 0);
  Tensor out = Tensor::Uninitialized(ReducedShape(a.shape(), axis, keepdim));
  const double* pa = a.data();
  double* po = out.data();
  ParallelOverReducedOutput(
      outer, inner, [&](int64_t o, int64_t ilo, int64_t ihi) {
        double* dst = po + o * inner;
        const double* first = pa + o * mid * inner;
        for (int64_t i = ilo; i < ihi; ++i) dst[i] = first[i];
        for (int64_t m = 1; m < mid; ++m) {
          const double* src = pa + (o * mid + m) * inner;
          for (int64_t i = ilo; i < ihi; ++i) {
            dst[i] = std::max(dst[i], src[i]);
          }
        }
      });
  return out;
}

double SumAll(const Tensor& a) {
  const double* pa = a.data();
  return ParallelSum(0, a.size(), kReduceGrain, [&](int64_t lo, int64_t hi) {
    double total = 0.0;
    for (int64_t i = lo; i < hi; ++i) total += pa[i];
    return total;
  });
}

double MeanAll(const Tensor& a) {
  AUTOCTS_CHECK_GT(a.size(), 0);
  return SumAll(a) / static_cast<double>(a.size());
}

namespace {

// Per-chunk partials for the full-tensor min/max reductions, stack-backed
// for the common case (mirrors ParallelSum's inline partials).
class PartialsScratch {
 public:
  PartialsScratch(int64_t size, double fill) : size_(size) {
    if (size_ > kInlineChunks) {
      heap_.resize(static_cast<size_t>(size_));
      ptr_ = heap_.data();
    }
    std::fill(ptr_, ptr_ + size_, fill);
  }
  PartialsScratch(const PartialsScratch&) = delete;
  PartialsScratch& operator=(const PartialsScratch&) = delete;

  double& operator[](int64_t i) { return ptr_[i]; }
  double operator[](int64_t i) const { return ptr_[i]; }
  int64_t size() const { return size_; }

 private:
  static constexpr int64_t kInlineChunks = 64;
  double inline_[kInlineChunks];
  std::vector<double> heap_;
  double* ptr_ = inline_;
  int64_t size_;
};

}  // namespace

double MaxAll(const Tensor& a) {
  AUTOCTS_CHECK_GT(a.size(), 0);
  const double* pa = a.data();
  double best = pa[0];
  const int64_t n = a.size();
  const int64_t num_chunks = (n + kReduceGrain - 1) / kReduceGrain;
  PartialsScratch partials(num_chunks, pa[0]);
  ParallelFor(0, n, kReduceGrain, [&](int64_t lo, int64_t hi) {
    double local = pa[lo];
    for (int64_t i = lo; i < hi; ++i) local = std::max(local, pa[i]);
    partials[lo / kReduceGrain] = local;
  });
  for (int64_t i = 0; i < partials.size(); ++i) {
    best = std::max(best, partials[i]);
  }
  return best;
}

double MinAll(const Tensor& a) {
  AUTOCTS_CHECK_GT(a.size(), 0);
  const double* pa = a.data();
  double best = pa[0];
  const int64_t n = a.size();
  const int64_t num_chunks = (n + kReduceGrain - 1) / kReduceGrain;
  PartialsScratch partials(num_chunks, pa[0]);
  ParallelFor(0, n, kReduceGrain, [&](int64_t lo, int64_t hi) {
    double local = pa[lo];
    for (int64_t i = lo; i < hi; ++i) local = std::min(local, pa[i]);
    partials[lo / kReduceGrain] = local;
  });
  for (int64_t i = 0; i < partials.size(); ++i) {
    best = std::min(best, partials[i]);
  }
  return best;
}

Tensor Softmax(const Tensor& a, int64_t axis) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer, mid, inner;
  AxisExtents(a.shape(), axis, &outer, &mid, &inner);
  Tensor out = Tensor::Uninitialized(a.shape());
  const double* pa = a.data();
  double* po = out.data();
  // Fused max/exp-sum/divide per (outer, inner) lane; one pass over memory
  // instead of the former five-tensor composition. Per-lane accumulation
  // over `mid` is in ascending order, matching the old Max/Sum kernels
  // bit-for-bit.
  ParallelOverReducedOutput(
      outer, inner, [&](int64_t o, int64_t ilo, int64_t ihi) {
        const int64_t base = o * mid * inner;
        for (int64_t i = ilo; i < ihi; ++i) {
          const double* lane = pa + base + i;
          double* lane_out = po + base + i;
          double mx = lane[0];
          for (int64_t m = 1; m < mid; ++m) {
            mx = std::max(mx, lane[m * inner]);
          }
          double total = 0.0;
          for (int64_t m = 0; m < mid; ++m) {
            const double e = std::exp(lane[m * inner] - mx);
            lane_out[m * inner] = e;
            total += e;
          }
          for (int64_t m = 0; m < mid; ++m) lane_out[m * inner] /= total;
        }
      });
  return out;
}

Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis) {
  AUTOCTS_CHECK(!tensors.empty());
  axis = NormalizeAxis(axis, tensors[0].ndim());
  Shape out_shape = tensors[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& t : tensors) {
    AUTOCTS_CHECK_EQ(t.ndim(), tensors[0].ndim());
    for (int64_t i = 0; i < t.ndim(); ++i) {
      if (i != axis) {
        AUTOCTS_CHECK_EQ(t.shape()[i], out_shape[i])
            << "concat shape mismatch on axis " << i;
      }
    }
    total_axis += t.shape()[axis];
  }
  out_shape[axis] = total_axis;
  // Every output element is covered by exactly one input copy (the axis
  // segments partition the output), so uninitialized storage is safe.
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer, mid, inner;
  AxisExtents(out_shape, axis, &outer, &mid, &inner);
  (void)mid;
  double* po = out.data();
  int64_t axis_offset = 0;
  for (const Tensor& t : tensors) {
    const int64_t t_axis = t.shape()[axis];
    const double* pt = t.data();
    const int64_t row = t_axis * inner;
    const int64_t outer_grain = std::max<int64_t>(1, kCopyGrain / std::max<int64_t>(row, 1));
    ParallelFor(0, outer, outer_grain, [&](int64_t olo, int64_t ohi) {
      for (int64_t o = olo; o < ohi; ++o) {
        double* dst = po + (o * total_axis + axis_offset) * inner;
        const double* src = pt + o * row;
        std::copy(src, src + row, dst);
      }
    });
    axis_offset += t_axis;
  }
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t length) {
  axis = NormalizeAxis(axis, a.ndim());
  AUTOCTS_CHECK_GE(start, 0);
  AUTOCTS_CHECK_GE(length, 0);
  AUTOCTS_CHECK_LE(start + length, a.shape()[axis]);
  Shape out_shape = a.shape();
  out_shape[axis] = length;
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer, mid, inner;
  AxisExtents(a.shape(), axis, &outer, &mid, &inner);
  const double* pa = a.data();
  double* po = out.data();
  const int64_t row = length * inner;
  const int64_t outer_grain =
      std::max<int64_t>(1, kCopyGrain / std::max<int64_t>(row, 1));
  ParallelFor(0, outer, outer_grain, [&](int64_t olo, int64_t ohi) {
    for (int64_t o = olo; o < ohi; ++o) {
      const double* src = pa + (o * mid + start) * inner;
      double* dst = po + o * row;
      std::copy(src, src + row, dst);
    }
  });
  return out;
}

Tensor Pad(const Tensor& a, int64_t axis, int64_t before, int64_t after) {
  axis = NormalizeAxis(axis, a.ndim());
  AUTOCTS_CHECK_GE(before, 0);
  AUTOCTS_CHECK_GE(after, 0);
  Shape out_shape = a.shape();
  out_shape[axis] += before + after;
  Tensor out(out_shape);  // zero-initialized: the padding is never written
  int64_t outer, mid, inner;
  AxisExtents(a.shape(), axis, &outer, &mid, &inner);
  const int64_t out_mid = out_shape[axis];
  const double* pa = a.data();
  double* po = out.data();
  const int64_t row = mid * inner;
  const int64_t outer_grain =
      std::max<int64_t>(1, kCopyGrain / std::max<int64_t>(row, 1));
  ParallelFor(0, outer, outer_grain, [&](int64_t olo, int64_t ohi) {
    for (int64_t o = olo; o < ohi; ++o) {
      const double* src = pa + o * row;
      double* dst = po + (o * out_mid + before) * inner;
      std::copy(src, src + row, dst);
    }
  });
  return out;
}

Tensor BroadcastTo(const Tensor& a, const Shape& target) {
  // Direct stride-0 gather; no throwaway zero tensor to drive BinaryOp.
  const Shape out_shape = BroadcastShapes(a.shape(), target);
  AUTOCTS_CHECK(out_shape == target)
      << "cannot broadcast " << ShapeToString(a.shape()) << " to "
      << ShapeToString(target);
  if (a.shape() == target) return a;
  Tensor out = Tensor::Uninitialized(target);
  AxisScratch sa(static_cast<int64_t>(target.size()));
  BroadcastStridesInto(a.shape(), target, sa.data());
  const StridedWalk walk(target, sa.data(), /*stride_b=*/nullptr);
  const double* pa = a.data();
  double* po = out.data();
  ParallelFor(0, out.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    internal::GatherRuns(walk, pa, po, lo, hi);
  });
  return out;
}

Tensor ReduceTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  // An empty target is the rank-0 spelling of a scalar; reduce to the
  // canonical scalar shape [1] instead of indexing into an empty vector.
  const Shape effective = target.empty() ? Shape{1} : target;
  AUTOCTS_CHECK_LE(static_cast<int64_t>(effective.size()), a.ndim())
      << "cannot reduce " << ShapeToString(a.shape()) << " to higher-rank "
      << ShapeToString(target);
  Tensor current = a;
  // Remove extra leading axes by summing them away. Sum never drops below
  // rank 1, so this terminates with current.ndim() == effective.size().
  while (current.ndim() > static_cast<int64_t>(effective.size())) {
    current = Sum(current, 0, /*keepdim=*/false);
  }
  // Sum broadcast (stretched) axes back down to size 1.
  for (int64_t i = 0; i < current.ndim(); ++i) {
    if (effective[i] == 1 && current.shape()[i] != 1) {
      current = Sum(current, i, /*keepdim=*/true);
    } else {
      AUTOCTS_CHECK_EQ(current.shape()[i], effective[i])
          << "cannot reduce " << ShapeToString(a.shape()) << " to "
          << ShapeToString(target);
    }
  }
  return current;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  AUTOCTS_CHECK(a->shape() == b.shape())
      << ShapeToString(a->shape()) << " vs " << ShapeToString(b.shape());
  double* pa = a->data();
  const double* pb = b.data();
  ParallelFor(0, a->size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void ScaleInPlace(Tensor* a, double value) {
  double* pa = a->data();
  ParallelFor(0, a->size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) pa[i] *= value;
  });
}

double SumSquares(const Tensor& a) {
  const double* pa = a.data();
  return ParallelSum(0, a.size(), kReduceGrain, [&](int64_t lo, int64_t hi) {
    double total = 0.0;
    for (int64_t i = lo; i < hi; ++i) total += pa[i] * pa[i];
    return total;
  });
}

double Norm(const Tensor& a) { return std::sqrt(SumSquares(a)); }

}  // namespace autocts
