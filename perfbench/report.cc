#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace autocts::perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailPercentile(std::vector<double> samples, double max_percentile) {
  Tail tail;
  tail.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const int64_t n = tail.count;
  for (int p = static_cast<int>(std::floor(max_percentile)); p >= 1; --p) {
    // Nearest rank: the ceil(p n / 100)-th smallest sample.
    const int64_t rank = (static_cast<int64_t>(p) * n + 99) / 100;
    if (n - rank >= 10) {
      tail.percentile = p;
      tail.value = samples[static_cast<size_t>(std::max<int64_t>(rank, 1) - 1)];
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = samples.back();
  return tail;
}

double HistogramPercentile(const obs::Histogram& histogram, double p) {
  if (histogram.count() == 0) return 0.0;
  const std::vector<double>& bounds = histogram.bounds();
  const std::vector<int64_t>& counts = histogram.bucket_counts();
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(histogram.count());
  double below = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (in_bucket > 0.0 && below + in_bucket >= target) {
      const double lo = i == 0 ? std::min(histogram.min(), bounds.front())
                               : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : histogram.max();
      const double fraction = (target - below) / in_bucket;
      return std::clamp(lo + fraction * (hi - lo), histogram.min(),
                        histogram.max());
    }
    below += in_bucket;
  }
  return histogram.max();
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

Status ValidateResult(const Result& result) {
  if (result.attempted < 1) {
    return Status::InvalidArgument("attempted must be >= 1");
  }
  if (result.failed < 0 || result.failed > result.attempted) {
    return Status::InvalidArgument("failed must lie in [0, attempted]");
  }
  for (const auto& [name, value] : result.metrics) {
    if (!ValidMetricName(name)) {
      return Status::InvalidArgument("invalid metric name '" + name + "'");
    }
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("non-finite value for " + name);
    }
  }
  return Status::Ok();
}

std::string ResultToJson(const Result& result) {
  // Names are validated to need no escaping.
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + JsonNumber(value);
  }
  out += "}}";
  return out;
}

}  // namespace autocts::perfbench
