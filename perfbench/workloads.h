// The benchmark's workloads. Each one generates its inputs from the seed,
// sets up, measures for the configured time, checks every output, and
// returns the metrics of one pass (traced or untraced).
#ifndef AUTOCTS_PERFBENCH_WORKLOADS_H_
#define AUTOCTS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"

namespace autocts::perfbench {

// Thread layout of a workload. Clients are the benchmark's own load threads;
// compute threads (server or eval workers) each drive the tensor pool.
struct Layout {
  int64_t tensor_threads = 1;  // SetNumThreads
  int64_t server_workers = 0;  // ForecastServer workers
  int64_t eval_workers = 0;    // EvalScheduler workers
  int64_t clients = 0;         // closed-loop TCP connections

  // Load threads plus compute threads x tensor threads: what must fit in
  // nproc for the run to measure the program rather than the scheduler.
  int64_t ThreadBudget() const;
};

Layout LayoutFor(const std::string& workload);

struct RunConfig {
  std::string workload;
  Layout layout;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string candidates_path;  // the checked-in genotype list
  std::string work_dir;         // scratch space for checkpoints/artifacts
};

// One measured pass. `metrics` holds every end-to-end and per-layer metric
// the pass produced; per-layer ones that need spans are filled only by a
// traced pass.
struct Measurement {
  MetricMap metrics;
  int64_t attempted = 0;
  int64_t failed = 0;  // failed or refused operations plus failed checks
  std::vector<std::string> errors;

  // Records a failed output check: counts as a failure and is reported.
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

Measurement RunSearchEval(const RunConfig& config, bool traced);
Measurement RunServeTcp(const RunConfig& config, bool traced);

}  // namespace autocts::perfbench

#endif  // AUTOCTS_PERFBENCH_WORKLOADS_H_
