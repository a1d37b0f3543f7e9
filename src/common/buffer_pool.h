// Size-bucketed, thread-safe recycling pool for tensor storage.
//
// Motivation: the supernet search inner loop materializes thousands of
// temporary tensors per step (op outputs, backward scratch, gradient
// accumulators), and heap-allocating every one caps the gains of the
// parallel kernels. The pool recycles whole storage blocks — the payload
// vector *and* its intrusive refcount header — through per-size-class free
// lists, so a warmed-up search step performs no tensor-storage heap
// allocations at all (bench/bench_alloc.cc measures the reduction).
//
// Determinism contract: recycling changes only memory addresses, never
// values. Acquire() returns zero-filled storage, exactly like a fresh
// allocation; AcquireUninitialized() is reserved for callers that provably
// overwrite every element before any read (the fully-writing kernels in
// tensor/tensor_ops.cc). Pool-on and pool-off runs are therefore
// bit-identical; tests/buffer_pool_test.cc asserts this over an entire
// joint search at 1 and 4 threads, and tools/tier1_verify.sh re-runs the
// key suites with AUTOCTS_TENSOR_POOL=0 so the fallback path stays tested.
//
// Thread safety: free lists are guarded by per-bucket mutexes and block
// refcounts are atomic, so handles may be copied and released from worker
// threads. The stats are deterministic when acquisition order is (all
// current callers acquire on the driver thread).
//
// Kill switch: AUTOCTS_TENSOR_POOL=0 (env, read once at first use) or
// BufferPool::Global().SetEnabled(false) disables recycling. Every
// acquisition then heap-allocates and every release frees immediately,
// restoring allocator-level debugging precision (e.g. ASan use-after-free
// on tensor storage).
#ifndef AUTOCTS_COMMON_BUFFER_POOL_H_
#define AUTOCTS_COMMON_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace autocts {

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace internal {

// One storage block: the payload plus the intrusive refcount its handles
// share. `bucket` >= 0 names the pool size class the block returns to on
// final release; bucket < 0 marks an unpooled block (deleted on release):
// pool disabled, size above the largest bucket, or adopted caller storage.
struct BufferBlock {
  std::vector<double> storage;
  std::atomic<int64_t> refs{1};
  int32_t bucket = -1;
};

// Hands `block` back to the pool free list (or deletes it when unpooled).
// Out of line so BufferRef's inline fast paths stay small.
void ReleaseBufferBlock(BufferBlock* block);

}  // namespace internal

// Intrusive shared handle to a BufferBlock; Tensor's storage pointer.
// Copying bumps the atomic refcount (no allocation); destroying the last
// handle returns the block to the pool. A default-constructed BufferRef is
// null (Tensor's "undefined" state).
class BufferRef {
 public:
  BufferRef() = default;
  // Takes over the initial reference the pool set on `block`.
  explicit BufferRef(internal::BufferBlock* block) : block_(block) {}

  BufferRef(const BufferRef& other) : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  BufferRef(BufferRef&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  BufferRef& operator=(const BufferRef& other) {
    BufferRef copy(other);
    std::swap(block_, copy.block_);
    return *this;
  }
  BufferRef& operator=(BufferRef&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~BufferRef() { Reset(); }

  void Reset() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      internal::ReleaseBufferBlock(block_);
    }
    block_ = nullptr;
  }

  bool defined() const { return block_ != nullptr; }
  double* data() const { return block_->storage.data(); }
  // True when this is the only handle to its block, so no one else can
  // observe a write through it. Acquire pairs with the release in Reset()
  // of a handle that another thread dropped.
  bool unique() const {
    return block_ != nullptr &&
           block_->refs.load(std::memory_order_acquire) == 1;
  }

 private:
  internal::BufferBlock* block_ = nullptr;
};

// Point-in-time pool counters (all cumulative except outstanding/free/
// cached_bytes/live_bytes, which are current levels, and peak_live_bytes,
// a high-water mark since the last ResetPeak()).
struct BufferPoolBucketStats {
  int64_t capacity = 0;  // elements per block in this bucket
  int64_t hits = 0;      // acquisitions served from the free list
  int64_t misses = 0;    // acquisitions that heap-allocated a new block
  int64_t returns = 0;   // releases recycled into the free list
  int64_t drops = 0;     // releases freed because the free list was full
  int64_t outstanding = 0;  // blocks currently held by live handles
  int64_t free = 0;         // blocks currently parked in the free list
};

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t returns = 0;
  int64_t drops = 0;
  // Unpooled acquisitions: pool disabled, size above the largest bucket,
  // or adopted caller storage. Each one is a heap allocation.
  int64_t bypass = 0;
  int64_t outstanding = 0;
  int64_t cached_bytes = 0;  // bytes parked across all free lists
  // Bytes of every block held by a live handle — pooled, bypassed or
  // adopted — at its allocated capacity: the tensor memory in use.
  int64_t live_bytes = 0;
  int64_t peak_live_bytes = 0;  // high-water mark of live_bytes
  std::vector<BufferPoolBucketStats> buckets;  // kNumBuckets entries

  // Tensor-storage heap allocations = misses + bypass.
  int64_t allocations() const { return misses + bypass; }
  // hits / (hits + misses); 0 before any pooled acquisition.
  double hit_rate() const;
};

class BufferPool {
 public:
  // Buckets are powers of two from 2^kMinShift to 2^kMaxShift elements
  // (512 B to 128 MiB of doubles); larger requests bypass the pool.
  static constexpr int kMinShift = 6;
  static constexpr int kMaxShift = 24;
  static constexpr int kNumBuckets = kMaxShift - kMinShift + 1;
  // Free-list depth per bucket: bounded by bytes, not block count, so the
  // small buckets can absorb an entire autograd tape (thousands of live
  // temporaries at peak) without thrashing. A LIFO free list caches at most
  // the peak simultaneous usage — memory the step needed anyway — so a
  // generous byte budget does not raise peak RSS; Trim() reclaims after a
  // one-off large phase.
  static constexpr int64_t kMaxFreeBytesPerBucket = int64_t{128} << 20;
  static constexpr int64_t kMinFreePerBucket = 8;
  static int64_t MaxFreeBlocks(int bucket) {
    const int64_t by_bytes =
        kMaxFreeBytesPerBucket /
        (BucketCapacity(bucket) * static_cast<int64_t>(sizeof(double)));
    return by_bytes < kMinFreePerBucket ? kMinFreePerBucket : by_bytes;
  }

  // The process-wide pool. Never destroyed (tensors with static storage
  // duration may release after main returns).
  static BufferPool& Global();

  // Zero-filled storage for `n` elements, exactly like a fresh allocation.
  BufferRef Acquire(int64_t n);
  // Storage with unspecified contents (recycled values!). Callers must
  // write every element before any read, or pool-on and pool-off runs
  // diverge — which tests/buffer_pool_test.cc's parity searches catch.
  BufferRef AcquireUninitialized(int64_t n);
  // Wraps caller-built storage without copying (Tensor::FromVector). The
  // block is unpooled: released storage is freed, not recycled.
  BufferRef Adopt(std::vector<double> values);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Toggles recycling for subsequent acquisitions. Blocks already handed
  // out keep the policy they were acquired under, so toggling mid-run is
  // safe. Intended for tests, benches, and the env kill switch.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  BufferPoolStats Stats() const;
  // Zeroes the cumulative counters (hits/misses/returns/drops/bypass);
  // levels (outstanding/free/live bytes) and the peak are unaffected.
  void ResetStats();
  // Restarts the high-water mark at the current live bytes, so the next
  // Stats().peak_live_bytes measures the phase that follows.
  void ResetPeak();
  // Frees every parked block (counted as drops). Outstanding blocks are
  // untouched and still return to the (now empty) free lists.
  void Trim();

  // Human-readable per-bucket table for logs and benches.
  std::string StatsString() const;

  // Size class for an element count; -1 when `n` exceeds the largest
  // bucket (bypass). n <= 0 maps to the smallest bucket.
  static int BucketIndex(int64_t n);
  static int64_t BucketCapacity(int bucket);

 private:
  friend void internal::ReleaseBufferBlock(internal::BufferBlock* block);

  BufferPool();
  BufferRef AcquireBlock(int64_t n, bool zero_fill);
  // Wraps a new unpooled block (bypass and Adopt) and counts it live.
  BufferRef TrackUnpooled(internal::BufferBlock* block);
  void Release(internal::BufferBlock* block);
  // Moves live_bytes_ by `bytes` (negative on release), raising the peak.
  void AddLiveBytes(int64_t bytes);

  struct Bucket {
    mutable std::mutex mutex;
    std::vector<internal::BufferBlock*> free;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t returns = 0;
    int64_t drops = 0;
    int64_t outstanding = 0;
  };

  std::atomic<bool> enabled_;
  std::atomic<int64_t> bypass_{0};
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_live_bytes_{0};
  Bucket buckets_[kNumBuckets];
};

// Registers the pool instrument set on `registry` (idempotent; fixes the
// column order) and snapshots current values into it. All instruments are
// "wall/"-prefixed: pool counters depend on process history (a second
// search in the same process starts with warm free lists), so they are
// excluded from determinism comparisons like the other wall columns.
void RegisterBufferPoolMetrics(obs::MetricsRegistry* registry);
// Snapshots current pool stats into the registered instruments.
void UpdateBufferPoolMetrics(obs::MetricsRegistry* registry);

}  // namespace autocts

#endif  // AUTOCTS_COMMON_BUFFER_POOL_H_
