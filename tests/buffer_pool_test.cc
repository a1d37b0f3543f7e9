// Tests for the size-bucketed tensor buffer pool (common/buffer_pool.h):
// bucket mapping, zero-fill-on-acquire, block recycling, the kill switch,
// live/peak tensor-byte accounting, and — the load-bearing guarantee —
// bit-identical search results with the pool on vs off at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/trainer.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

using core::JointSearcher;
using core::SearchOptions;
using core::SearchResult;
using models::PreparedData;

// Restores the pool's enabled state on scope exit so a failing test cannot
// leak a disabled pool into later suites.
class ScopedPoolEnabled {
 public:
  explicit ScopedPoolEnabled(bool enabled)
      : previous_(BufferPool::Global().enabled()) {
    BufferPool::Global().SetEnabled(enabled);
  }
  ~ScopedPoolEnabled() { BufferPool::Global().SetEnabled(previous_); }

 private:
  bool previous_;
};

TEST(BufferPool, BucketIndexRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BufferPool::BucketIndex(0), 0);
  EXPECT_EQ(BufferPool::BucketIndex(1), 0);
  EXPECT_EQ(BufferPool::BucketIndex(64), 0);
  EXPECT_EQ(BufferPool::BucketIndex(65), 1);
  EXPECT_EQ(BufferPool::BucketIndex(128), 1);
  EXPECT_EQ(BufferPool::BucketIndex(129), 2);
  const int64_t largest = BufferPool::BucketCapacity(BufferPool::kNumBuckets - 1);
  EXPECT_EQ(BufferPool::BucketIndex(largest), BufferPool::kNumBuckets - 1);
  // Above the largest bucket the pool steps aside.
  EXPECT_EQ(BufferPool::BucketIndex(largest + 1), -1);
}

TEST(BufferPool, AcquireZeroFillsRecycledBlocks) {
  ScopedPoolEnabled enabled(true);
  constexpr int64_t kCount = 100;
  double* first_data = nullptr;
  {
    BufferRef ref = BufferPool::Global().Acquire(kCount);
    first_data = ref.data();
    // Scribble over the whole payload so a recycled block would hand the
    // garbage to the next acquirer if Acquire failed to zero-fill.
    for (int64_t i = 0; i < kCount; ++i) ref.data()[i] = 1e9 + i;
  }
  BufferRef recycled = BufferPool::Global().Acquire(kCount);
  // LIFO free list: same bucket, same size, so we get the same block back.
  EXPECT_EQ(recycled.data(), first_data);
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(recycled.data()[i], 0.0) << "recycled garbage at " << i;
  }
}

TEST(BufferPool, TensorDestructionReturnsBufferToPool) {
  ScopedPoolEnabled enabled(true);
  const BufferPoolStats before = BufferPool::Global().Stats();
  const double* storage = nullptr;
  {
    Tensor t({8, 8});
    storage = t.data();
    const BufferPoolStats held = BufferPool::Global().Stats();
    EXPECT_EQ(held.outstanding, before.outstanding + 1);
  }
  const BufferPoolStats after = BufferPool::Global().Stats();
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.returns, before.returns + 1);
  // The freed block is first in line for the next same-bucket tensor.
  Tensor reused({8, 8});
  EXPECT_EQ(reused.data(), storage);
}

TEST(BufferPool, ViewsShareOneBlockUntilLastHandleDies) {
  ScopedPoolEnabled enabled(true);
  const BufferPoolStats before = BufferPool::Global().Stats();
  {
    Tensor t({4, 4});
    Tensor view = t.Reshape({16});
    EXPECT_EQ(view.data(), t.data());
    const BufferPoolStats held = BufferPool::Global().Stats();
    // One block outstanding, not two: the view is a reference, not a copy.
    EXPECT_EQ(held.outstanding, before.outstanding + 1);
  }
  EXPECT_EQ(BufferPool::Global().Stats().outstanding, before.outstanding);
}

TEST(BufferPool, KillSwitchBypassesRecycling) {
  ScopedPoolEnabled disabled(false);
  const BufferPoolStats before = BufferPool::Global().Stats();
  {
    Tensor t({8, 8});
    ASSERT_TRUE(t.defined());
  }
  const BufferPoolStats after = BufferPool::Global().Stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.returns, before.returns);
  EXPECT_GE(after.bypass, before.bypass + 1);
}

TEST(BufferPool, LiveBytesCountEveryBlockAtItsCapacity) {
  BufferPool& pool = BufferPool::Global();
  constexpr int64_t kDouble = sizeof(double);
  const int64_t base = pool.Stats().live_bytes;
  {
    ScopedPoolEnabled enabled(true);
    // Pooled: counted at the bucket capacity (128 elements), once per
    // block however many handles share it; released blocks parked in the
    // free list are cached, not live.
    BufferRef pooled = pool.Acquire(100);
    BufferRef copy = pooled;
    EXPECT_EQ(pool.Stats().live_bytes, base + 128 * kDouble);
    pooled.Reset();
    EXPECT_EQ(pool.Stats().live_bytes, base + 128 * kDouble);
    copy.Reset();
    EXPECT_EQ(pool.Stats().live_bytes, base);
  }
  {
    // Bypassed: an exact-sized heap block.
    ScopedPoolEnabled disabled(false);
    BufferRef bypassed = pool.Acquire(100);
    EXPECT_EQ(pool.Stats().live_bytes, base + 100 * kDouble);
  }
  EXPECT_EQ(pool.Stats().live_bytes, base);
  {
    // Adopted: counted at the vector's allocated capacity, not its size.
    std::vector<double> values(10, 1.0);
    values.reserve(32);
    const int64_t capacity = static_cast<int64_t>(values.capacity());
    BufferRef adopted = pool.Adopt(std::move(values));
    EXPECT_EQ(pool.Stats().live_bytes, base + capacity * kDouble);
  }
  EXPECT_EQ(pool.Stats().live_bytes, base);
}

TEST(BufferPool, PeakLiveBytesIsAHighWaterMarkUntilReset) {
  ScopedPoolEnabled enabled(true);
  BufferPool& pool = BufferPool::Global();
  pool.ResetPeak();
  const int64_t base = pool.Stats().live_bytes;
  EXPECT_EQ(pool.Stats().peak_live_bytes, base);
  {
    BufferRef a = pool.Acquire(1000);  // 1024-element bucket
    BufferRef b = pool.AcquireUninitialized(1000);
  }
  BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.live_bytes, base);
  EXPECT_EQ(stats.peak_live_bytes,
            base + 2 * 1024 * static_cast<int64_t>(sizeof(double)));

  // Both figures are published as wall/tensor_pool gauges.
  obs::MetricsRegistry registry;
  RegisterBufferPoolMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("wall/tensor_pool/live_bytes")->value(),
            static_cast<double>(stats.live_bytes));
  EXPECT_EQ(registry.GetGauge("wall/tensor_pool/peak_live_bytes")->value(),
            static_cast<double>(stats.peak_live_bytes));

  pool.ResetPeak();
  stats = pool.Stats();
  EXPECT_EQ(stats.peak_live_bytes, stats.live_bytes);
}

TEST(BufferPool, PoisonedRecycledBlocksDoNotLeakIntoResults) {
  ScopedPoolEnabled enabled(true);
  // Poison: run tensors through the pool and scribble on them so the free
  // lists are full of non-zero garbage ...
  for (int i = 0; i < 16; ++i) {
    Tensor t({16, 16});
    t.Fill(-12345.0 - i);
  }
  // ... then check a fresh computation sees none of it. Zeros(...) + AddInPlace
  // exercises the zero-filled Acquire path; Ones uses Fill over
  // uninitialized storage.
  Tensor z = Tensor::Zeros({16, 16});
  Tensor o = Tensor::Ones({16, 16});
  AddInPlace(&z, o);
  for (int64_t i = 0; i < z.size(); ++i) {
    ASSERT_EQ(z.data()[i], 1.0) << "poison leaked at " << i;
  }
}

TEST(BufferPool, ConcurrentAcquireReleaseIsSafe) {
  ScopedPoolEnabled enabled(true);
  // Handles are copied and released from several threads at once; TSan and
  // ASan runs of this suite (tools/tier1_verify.sh) make this a real race
  // and lifetime check rather than just a smoke loop.
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIterations; ++i) {
        BufferRef a = BufferPool::Global().Acquire(64 + t);
        BufferRef b = a;  // refcount bump
        a.Reset();
        b.data()[0] = static_cast<double>(i);
        BufferRef c = BufferPool::Global().AcquireUninitialized(512);
        c.data()[0] = b.data()[0];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// --- Search-level parity -------------------------------------------------

PreparedData TinyData() {
  data::TrafficSpeedConfig config;
  config.num_nodes = 4;
  config.num_steps = 300;
  config.seed = 31;
  data::WindowSpec window;
  window.input_length = 6;
  window.output_length = 3;
  return models::PrepareData(data::GenerateTrafficSpeed(config), window, 0.7,
                             0.1);
}

SearchOptions TinyOptions() {
  SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.supernet.partial_denominator = 4;
  options.epochs = 2;
  options.batch_size = 8;
  options.max_batches_per_epoch = 4;
  return options;
}

SearchResult RunTinySearch(bool pool_enabled) {
  ScopedPoolEnabled scoped(pool_enabled);
  const PreparedData data = TinyData();
  return JointSearcher(TinyOptions()).Search(data);
}

// The pool's core promise: recycling changes memory addresses only, never
// values. A full supernet search must produce the same genotype and the
// exact same loss with the pool on and off.
TEST(BufferPoolParity, SearchBitIdenticalPoolOnVsOff) {
  const int64_t previous_threads = NumThreads();
  for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
    SetNumThreads(threads);
    const SearchResult off = RunTinySearch(/*pool_enabled=*/false);
    const SearchResult on = RunTinySearch(/*pool_enabled=*/true);
    EXPECT_TRUE(on.genotype == off.genotype)
        << "genotype diverged at " << threads << " threads";
    EXPECT_EQ(on.final_validation_loss, off.final_validation_loss)
        << "loss diverged at " << threads << " threads";
  }
  SetNumThreads(previous_threads);
}

TEST(BufferPoolParity, SearchWarmsThePool) {
  ScopedPoolEnabled enabled(true);
  BufferPool::Global().ResetStats();
  const PreparedData data = TinyData();
  (void)JointSearcher(TinyOptions()).Search(data);
  const BufferPoolStats stats = BufferPool::Global().Stats();
  // The inner loop reuses the same temporary sizes step after step, so the
  // steady state is overwhelmingly hits.
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.hit_rate(), 0.5)
      << "hits=" << stats.hits << " misses=" << stats.misses;
}

}  // namespace
}  // namespace autocts
