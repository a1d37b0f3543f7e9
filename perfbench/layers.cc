#include "layers.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "common/buffer_pool.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace autocts::perfbench {
namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Op span labels (autograd/variable_ops.cc) grouped into kernel families.
const char* OpFamily(std::string_view op) {
  static const std::map<std::string_view, const char*> kFamilies = {
      {"matmul", "matmul"},
      {"add", "elementwise"},        {"sub", "elementwise"},
      {"mul", "elementwise"},        {"div", "elementwise"},
      {"add_scalar", "elementwise"}, {"mul_scalar", "elementwise"},
      {"exp", "elementwise"},        {"log", "elementwise"},
      {"sqrt", "elementwise"},       {"abs", "elementwise"},
      {"tanh", "elementwise"},       {"sigmoid", "elementwise"},
      {"relu", "elementwise"},       {"pow_scalar", "elementwise"},
      {"huber_loss", "elementwise"},
      {"sum", "reduce"},             {"sum_all", "reduce"},
      {"softmax", "reduce"},
      {"reshape", "layout"},         {"permute", "layout"},
      {"concat", "layout"},          {"slice", "layout"},
      {"pad", "layout"},             {"index_select", "layout"},
  };
  const auto it = kFamilies.find(op);
  return it == kFamilies.end() ? nullptr : it->second;
}

}  // namespace

LayerSnapshot LayerSnapshot::Take() {
  LayerSnapshot snapshot;
  snapshot.pool = GetPoolStats();
  const BufferPoolStats buffers = BufferPool::Global().Stats();
  snapshot.buffer_hits = buffers.hits;
  snapshot.buffer_misses = buffers.misses;
  snapshot.buffer_allocations = buffers.allocations();
  snapshot.buffer_cached_bytes = buffers.cached_bytes;
  snapshot.io = fault::GetIoStats();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  snapshot.cpu_seconds = Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
  snapshot.wall_seconds = static_cast<double>(SteadyNowNanos()) * 1e-9;
  return snapshot;
}

void AddCounterDeltas(const LayerSnapshot& before, const LayerSnapshot& after,
                      MetricMap* out) {
  const double jobs = static_cast<double>(after.pool.jobs - before.pool.jobs);
  const double chunks =
      static_cast<double>(after.pool.chunks - before.pool.chunks);
  const double worker_chunks = static_cast<double>(
      after.pool.worker_chunks - before.pool.worker_chunks);
  const double serial_chunks = static_cast<double>(
      after.pool.serial_chunks - before.pool.serial_chunks);
  (*out)["parallel.jobs"] = jobs;
  (*out)["parallel.chunks_per_job"] = Ratio(chunks, jobs);
  (*out)["parallel.worker_chunk_share"] = Ratio(worker_chunks, chunks);
  (*out)["parallel.serial_chunk_share"] =
      Ratio(serial_chunks, chunks + serial_chunks);
  (*out)["process.cpu_per_wall"] =
      Ratio(after.cpu_seconds - before.cpu_seconds,
            after.wall_seconds - before.wall_seconds);

  const double hits =
      static_cast<double>(after.buffer_hits - before.buffer_hits);
  const double misses =
      static_cast<double>(after.buffer_misses - before.buffer_misses);
  (*out)["buffer_pool.hit_rate"] = Ratio(hits, hits + misses);
  (*out)["buffer_pool.allocations"] = static_cast<double>(
      after.buffer_allocations - before.buffer_allocations);
  (*out)["buffer_pool.cached_mb"] =
      static_cast<double>(after.buffer_cached_bytes) / (1024.0 * 1024.0);
  (*out)["io.retries"] =
      static_cast<double>(after.io.retries - before.io.retries);
}

void AddTraceMetrics(MetricMap* out) {
  // Every name below is written even when its spans never ran, so each
  // traced run reports the same metric set.
  for (const char* family : {"matmul", "elementwise", "reduce", "layout"}) {
    (*out)[std::string("ops.") + family + ".self_s"] = 0.0;
    (*out)[std::string("autograd.") + family + ".bwd_self_s"] = 0.0;
  }
  (*out)["ops.matmul.calls"] = 0.0;
  const std::map<std::string, std::string> kSelfSeconds = {
      {"adam/step", "optim.adam_step_self_s"},
      {"optim/clip_grad_norm", "optim.clip_self_s"},
      {"data/get_batch", "data.get_batch_self_s"},
      {"train/predict", "train.predict_self_s"},
      {"train/eval_loss", "train.eval_loss_self_s"},
  };
  for (const auto& [span, metric] : kSelfSeconds) (*out)[metric] = 0.0;
  (*out)["search.step_s"] = 0.0;
  (*out)["search.checkpoint_s"] = 0.0;
  (*out)["serve.forward_ms_per_batch"] = 0.0;

  double bench_total_ns = 0.0;
  double bench_self_ns = 0.0;
  for (const trace::OpStat& stat : trace::AggregateOps()) {
    const double self_s = static_cast<double>(stat.self_ns) * 1e-9;
    const double mean_s =
        Ratio(static_cast<double>(stat.total_ns) * 1e-9,
              static_cast<double>(stat.calls));
    std::string_view name = stat.name;
    const bool backward = name.size() > 4 && name.ends_with(".bwd");
    if (backward) name.remove_suffix(4);
    if (const char* family = OpFamily(name)) {
      (*out)[(backward ? std::string("autograd.") : std::string("ops.")) +
             family + (backward ? ".bwd_self_s" : ".self_s")] += self_s;
      if (!backward && name == "matmul") {
        (*out)["ops.matmul.calls"] += static_cast<double>(stat.calls);
      }
      continue;
    }
    if (backward) continue;
    if (const auto it = kSelfSeconds.find(stat.name); it != kSelfSeconds.end()) {
      (*out)[it->second] += self_s;
    } else if (name == "search/step") {
      (*out)["search.step_s"] = mean_s;
    } else if (name == "search/checkpoint") {
      (*out)["search.checkpoint_s"] = mean_s;
    } else if (name == "serve/forward") {
      (*out)["serve.forward_ms_per_batch"] = mean_s * 1e3;
    } else if (name.starts_with("bench/")) {
      bench_total_ns += static_cast<double>(stat.total_ns);
      bench_self_ns += static_cast<double>(stat.self_ns);
    }
  }
  (*out)["trace.coverage"] =
      bench_total_ns > 0.0 ? 1.0 - bench_self_ns / bench_total_ns : 0.0;
  (*out)["trace.dropped_events"] = static_cast<double>(trace::DroppedEvents());
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS mark
  clear_refs.close();
  return !clear_refs.fail();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace autocts::perfbench
