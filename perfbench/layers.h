// Per-layer measurement from outside the program: counter snapshots of the
// layers' public statistics taken around a measured region, and the
// mapping of the tracer's per-op aggregates onto per-layer metric names.
#ifndef AUTOCTS_PERFBENCH_LAYERS_H_
#define AUTOCTS_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "common/fault.h"
#include "common/parallel.h"
#include "report.h"

namespace autocts::perfbench {

// Cumulative layer counters at one instant.
struct LayerSnapshot {
  PoolStats pool;                // GetPoolStats()
  int64_t buffer_hits = 0;       // BufferPool::Global().Stats()
  int64_t buffer_misses = 0;
  int64_t buffer_allocations = 0;
  int64_t buffer_cached_bytes = 0;
  fault::IoStats io;             // GetIoStats()
  double cpu_seconds = 0.0;      // getrusage user + system
  double wall_seconds = 0.0;     // steady clock

  static LayerSnapshot Take();
};

// parallel.*, process.cpu_per_wall, buffer_pool.* and io.retries over the
// region between two snapshots.
void AddCounterDeltas(const LayerSnapshot& before, const LayerSnapshot& after,
                      MetricMap* out);

// Maps trace::AggregateOps() rows onto the ops.*, autograd.*, optim.*,
// data.*, search.*, train.* and serve.forward_ms_per_batch metrics, plus
// trace.coverage (the share of the benchmark's own "bench/" spans that the
// program's spans account for on the calling thread) and
// trace.dropped_events. Call after trace::Stop().
void AddTraceMetrics(MetricMap* out);

// Restarts the kernel's peak-RSS mark from the current resident set, so a
// later PeakRssMb() covers only what follows. False where
// /proc/self/clear_refs is not writable; the mark then keeps the whole
// process's peak.
bool ResetPeakRss();

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace autocts::perfbench

#endif  // AUTOCTS_PERFBENCH_LAYERS_H_
