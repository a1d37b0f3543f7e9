#include "common/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/metrics_registry.h"

namespace autocts {
namespace {

bool PoolEnabledFromEnv() {
  const char* value = std::getenv("AUTOCTS_TENSOR_POOL");
  return value == nullptr || std::string(value) != "0";
}

// An unpooled block's payload at its allocated capacity.
int64_t UnpooledBytes(const internal::BufferBlock& block) {
  return static_cast<int64_t>(block.storage.capacity() * sizeof(double));
}

}  // namespace

namespace internal {

void ReleaseBufferBlock(BufferBlock* block) {
  if (block->bucket < 0) {
    BufferPool::Global().AddLiveBytes(-UnpooledBytes(*block));
    delete block;
    return;
  }
  BufferPool::Global().Release(block);
}

}  // namespace internal

double BufferPoolStats::hit_rate() const {
  const int64_t pooled = hits + misses;
  return pooled == 0 ? 0.0 : static_cast<double>(hits) / pooled;
}

BufferPool::BufferPool() : enabled_(PoolEnabledFromEnv()) {}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();  // leaked: see header
  return *pool;
}

int BufferPool::BucketIndex(int64_t n) {
  int64_t capacity = int64_t{1} << kMinShift;
  for (int bucket = 0; bucket < kNumBuckets; ++bucket, capacity <<= 1) {
    if (n <= capacity) return bucket;
  }
  return -1;
}

int64_t BufferPool::BucketCapacity(int bucket) {
  AUTOCTS_CHECK(bucket >= 0 && bucket < kNumBuckets)
      << "bucket out of range: " << bucket;
  return int64_t{1} << (kMinShift + bucket);
}

BufferRef BufferPool::AcquireBlock(int64_t n, bool zero_fill) {
  AUTOCTS_CHECK(n >= 0) << "negative buffer size: " << n;
  const int bucket_index = enabled() ? BucketIndex(n) : -1;
  if (bucket_index < 0) {
    auto* block = new internal::BufferBlock();
    // Unpooled blocks are exact-sized; value-init already zero-fills.
    block->storage.resize(static_cast<size_t>(n));
    return TrackUnpooled(block);
  }

  Bucket& bucket = buckets_[bucket_index];
  internal::BufferBlock* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    if (!bucket.free.empty()) {
      block = bucket.free.back();
      bucket.free.pop_back();
      ++bucket.hits;
    } else {
      ++bucket.misses;
    }
    ++bucket.outstanding;
  }
  if (block == nullptr) {
    block = new internal::BufferBlock();
    block->bucket = bucket_index;
    block->storage.resize(static_cast<size_t>(BucketCapacity(bucket_index)));
  } else {
    block->refs.store(1, std::memory_order_relaxed);
  }
  AddLiveBytes(BucketCapacity(bucket_index) *
               static_cast<int64_t>(sizeof(double)));
  if (zero_fill && n > 0) {
    // Only the first n elements are the tensor's payload; the bucket tail
    // is never read, so it keeps recycled contents.
    std::memset(block->storage.data(), 0, static_cast<size_t>(n) * sizeof(double));
  }
  return BufferRef(block);
}

BufferRef BufferPool::Acquire(int64_t n) {
  return AcquireBlock(n, /*zero_fill=*/true);
}

BufferRef BufferPool::AcquireUninitialized(int64_t n) {
  return AcquireBlock(n, /*zero_fill=*/false);
}

BufferRef BufferPool::Adopt(std::vector<double> values) {
  auto* block = new internal::BufferBlock();
  block->storage = std::move(values);
  return TrackUnpooled(block);
}

BufferRef BufferPool::TrackUnpooled(internal::BufferBlock* block) {
  bypass_.fetch_add(1, std::memory_order_relaxed);
  AddLiveBytes(UnpooledBytes(*block));
  return BufferRef(block);
}

void BufferPool::AddLiveBytes(int64_t bytes) {
  const int64_t live =
      live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = peak_live_bytes_.load(std::memory_order_relaxed);
  while (live > peak && !peak_live_bytes_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void BufferPool::Release(internal::BufferBlock* block) {
  AddLiveBytes(-BucketCapacity(block->bucket) *
               static_cast<int64_t>(sizeof(double)));
  Bucket& bucket = buckets_[block->bucket];
  bool recycle = false;
  {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    --bucket.outstanding;
    if (static_cast<int64_t>(bucket.free.size()) <
        MaxFreeBlocks(block->bucket)) {
      bucket.free.push_back(block);
      ++bucket.returns;
      recycle = true;
    } else {
      ++bucket.drops;
    }
  }
  if (!recycle) delete block;
}

BufferPoolStats BufferPool::Stats() const {
  BufferPoolStats stats;
  stats.bypass = bypass_.load(std::memory_order_relaxed);
  stats.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  stats.peak_live_bytes = peak_live_bytes_.load(std::memory_order_relaxed);
  stats.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    const Bucket& bucket = buckets_[i];
    BufferPoolBucketStats& out = stats.buckets[i];
    out.capacity = BucketCapacity(i);
    std::lock_guard<std::mutex> lock(bucket.mutex);
    out.hits = bucket.hits;
    out.misses = bucket.misses;
    out.returns = bucket.returns;
    out.drops = bucket.drops;
    out.outstanding = bucket.outstanding;
    out.free = static_cast<int64_t>(bucket.free.size());
    stats.hits += out.hits;
    stats.misses += out.misses;
    stats.returns += out.returns;
    stats.drops += out.drops;
    stats.outstanding += out.outstanding;
    stats.cached_bytes += out.free * out.capacity *
                          static_cast<int64_t>(sizeof(double));
  }
  return stats;
}

void BufferPool::ResetStats() {
  bypass_.store(0, std::memory_order_relaxed);
  for (Bucket& bucket : buckets_) {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    bucket.hits = 0;
    bucket.misses = 0;
    bucket.returns = 0;
    bucket.drops = 0;
  }
}

void BufferPool::ResetPeak() {
  peak_live_bytes_.store(live_bytes_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
}

void BufferPool::Trim() {
  for (Bucket& bucket : buckets_) {
    std::vector<internal::BufferBlock*> parked;
    {
      std::lock_guard<std::mutex> lock(bucket.mutex);
      parked.swap(bucket.free);
      bucket.drops += static_cast<int64_t>(parked.size());
    }
    for (internal::BufferBlock* block : parked) delete block;
  }
}

std::string BufferPool::StatsString() const {
  const BufferPoolStats stats = Stats();
  std::ostringstream out;
  out << "tensor pool: hits=" << stats.hits << " misses=" << stats.misses
      << " hit_rate=" << stats.hit_rate() << " bypass=" << stats.bypass
      << " returns=" << stats.returns << " drops=" << stats.drops
      << " outstanding=" << stats.outstanding
      << " cached_bytes=" << stats.cached_bytes
      << " live_bytes=" << stats.live_bytes
      << " peak_live_bytes=" << stats.peak_live_bytes << "\n";
  for (const BufferPoolBucketStats& bucket : stats.buckets) {
    if (bucket.hits == 0 && bucket.misses == 0 && bucket.free == 0) continue;
    out << "  cap=" << bucket.capacity << " hits=" << bucket.hits
        << " misses=" << bucket.misses << " returns=" << bucket.returns
        << " drops=" << bucket.drops << " outstanding=" << bucket.outstanding
        << " free=" << bucket.free << "\n";
  }
  return out.str();
}

namespace {

std::string BucketMetricName(int bucket, const char* field) {
  std::ostringstream name;
  name << "wall/tensor_pool/b" << (BufferPool::kMinShift + bucket) << "/"
       << field;
  return name.str();
}

}  // namespace

void RegisterBufferPoolMetrics(obs::MetricsRegistry* registry) {
  // Registration fixes the CSV column order, so every column — including
  // all per-bucket ones — is created up front: rows stay rectangular and a
  // checkpoint-resumed registry has the same column set as a fresh one.
  registry->GetGauge("wall/tensor_pool/hits");
  registry->GetGauge("wall/tensor_pool/misses");
  registry->GetGauge("wall/tensor_pool/hit_rate");
  registry->GetGauge("wall/tensor_pool/bypass");
  registry->GetGauge("wall/tensor_pool/outstanding");
  registry->GetGauge("wall/tensor_pool/cached_bytes");
  registry->GetGauge("wall/tensor_pool/live_bytes");
  registry->GetGauge("wall/tensor_pool/peak_live_bytes");
  for (int i = 0; i < BufferPool::kNumBuckets; ++i) {
    registry->GetGauge(BucketMetricName(i, "hits"));
    registry->GetGauge(BucketMetricName(i, "misses"));
    registry->GetGauge(BucketMetricName(i, "outstanding"));
  }
  UpdateBufferPoolMetrics(registry);
}

void UpdateBufferPoolMetrics(obs::MetricsRegistry* registry) {
  const BufferPoolStats stats = BufferPool::Global().Stats();
  registry->GetGauge("wall/tensor_pool/hits")
      ->Set(static_cast<double>(stats.hits));
  registry->GetGauge("wall/tensor_pool/misses")
      ->Set(static_cast<double>(stats.misses));
  registry->GetGauge("wall/tensor_pool/hit_rate")->Set(stats.hit_rate());
  registry->GetGauge("wall/tensor_pool/bypass")
      ->Set(static_cast<double>(stats.bypass));
  registry->GetGauge("wall/tensor_pool/outstanding")
      ->Set(static_cast<double>(stats.outstanding));
  registry->GetGauge("wall/tensor_pool/cached_bytes")
      ->Set(static_cast<double>(stats.cached_bytes));
  registry->GetGauge("wall/tensor_pool/live_bytes")
      ->Set(static_cast<double>(stats.live_bytes));
  registry->GetGauge("wall/tensor_pool/peak_live_bytes")
      ->Set(static_cast<double>(stats.peak_live_bytes));
  for (int i = 0; i < BufferPool::kNumBuckets; ++i) {
    const BufferPoolBucketStats& bucket = stats.buckets[i];
    registry->GetGauge(BucketMetricName(i, "hits"))
        ->Set(static_cast<double>(bucket.hits));
    registry->GetGauge(BucketMetricName(i, "misses"))
        ->Set(static_cast<double>(bucket.misses));
    registry->GetGauge(BucketMetricName(i, "outstanding"))
        ->Set(static_cast<double>(bucket.outstanding));
  }
}

}  // namespace autocts
