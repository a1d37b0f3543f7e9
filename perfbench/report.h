// Statistics and output helpers of the repository benchmark (perfbench):
// percentiles that never claim more than the sample supports, and the
// one-line machine-readable record every pass ends with.
#ifndef AUTOCTS_PERFBENCH_REPORT_H_
#define AUTOCTS_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"

namespace autocts::perfbench {

using MetricMap = std::map<std::string, double>;

// Median of `samples` (mean of the middle pair for an even count); 0 when
// empty.
double Median(std::vector<double> samples);

// A tail percentile together with the sample it was read from.
struct Tail {
  double percentile = 0.0;  // 100 = the maximum (fewer than 11 samples)
  double value = 0.0;
  int64_t count = 0;
};

// The highest whole percentile <= `max_percentile` that leaves at least ten
// samples strictly beyond its nearest-rank position, so a p99 needs 1000
// samples and 200 samples give a p95. With fewer than 11 samples no
// percentile qualifies and the maximum is reported as percentile 100.
// An empty sample gives {0, 0, 0}.
Tail TailPercentile(std::vector<double> samples, double max_percentile = 99.0);

// Percentile `p` (0..100) of a registry histogram, interpolated linearly
// inside the bucket that holds it (the +inf bucket reads as the recorded
// maximum). Bucket resolution limits the answer; 0 for an empty histogram.
double HistogramPercentile(const obs::Histogram& histogram, double p);

// Metric names: a letter or digit, then letters, digits, '_', '.' or '-',
// 64 characters at most.
bool ValidMetricName(const std::string& name);

// What one pass prints as the last line of its standard output. Units are
// not part of it: run.py attaches them from BENCHMARK.json.
struct Result {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricMap metrics;
};

// Rejects invalid names, non-finite values, attempted < 1, and failed
// outside [0, attempted].
Status ValidateResult(const Result& result);

// {"correct": .., "attempted": .., "failed": .., "metrics": {name: value,
// ...}} on one line, names in sorted order, values with all 17 significant
// digits.
std::string ResultToJson(const Result& result);

}  // namespace autocts::perfbench

#endif  // AUTOCTS_PERFBENCH_REPORT_H_
