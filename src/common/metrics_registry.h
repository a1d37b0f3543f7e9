// Typed metrics registry: named counters, gauges, and histograms plus a
// row log of periodic snapshots, with CSV and JSON-lines sinks.
//
// The registry is a passive recorder. Instruments only ever *receive*
// values the instrumented code already computed — they never feed anything
// back — so enabling metrics cannot perturb a run (the bit-transparency
// contract shared with common/trace.h).
//
// Snapshot model: instruments are registered up front (registration order
// fixes the column order); AppendRow(kind, epoch, step) then snapshots
// every instrument's current value into one row. The CSV sink emits one
// line per row with a fixed header
//   kind,epoch,step,<instrument columns...>
// and the JSONL sink one JSON object per row.
//
// Determinism convention: metrics derived from wall-clock time or
// scheduling (batches/sec, pool occupancy, elapsed seconds) are
// legitimately different between otherwise identical runs. Such
// instruments MUST be named with a "wall/" prefix; StripWallColumns()
// projects a CSV down to the deterministic columns, which is what the
// determinism tests compare bit-for-bit across seeds/thread counts.
//
// EncodeState()/DecodeState() round-trip the full registry (instruments,
// exact hex-float values, and all rows) through a single string, which the
// search checkpoint embeds so metrics survive crash/resume: a resumed
// run's final sinks equal an uninterrupted run's (modulo "wall/" columns).
//
// Not thread-safe: a registry belongs to the driver thread of the loop it
// instruments.
#ifndef AUTOCTS_COMMON_METRICS_REGISTRY_H_
#define AUTOCTS_COMMON_METRICS_REGISTRY_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace autocts {
namespace obs {

// Monotonically increasing integer (steps, skips, recoveries). Set() exists
// only for state restoration after rollback/resume.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  void Increment(int64_t delta = 1) { value_ += delta; }
  void Set(int64_t value) { value_ = value; }
  int64_t value() const { return value_; }

 private:
  std::string name_;
  int64_t value_ = 0;
};

// Last-written double value (losses, τ, entropies, rates).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  std::string name_;
  double value_ = 0.0;
};

// Distribution summary: bucket counts over fixed upper bounds (plus an
// implicit +inf bucket), with count/sum/min/max.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);
  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

  void Observe(double value);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  // min/max are +inf/-inf while count() == 0.
  double min() const { return min_; }
  double max() const { return max_; }
  // bounds().size() + 1 entries; bucket i counts values <= bounds()[i],
  // the last bucket counts the rest (including NaN observations).
  const std::vector<int64_t>& bucket_counts() const { return bucket_counts_; }

 private:
  friend class MetricsRegistry;  // state restoration
  std::string name_;
  std::vector<double> bounds_;
  std::vector<int64_t> bucket_counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  // One AppendRow() snapshot. `values` holds every column in header order
  // (see ColumnNames()).
  struct Row {
    std::string kind;  // e.g. "step", "epoch"
    int64_t epoch = 0;
    int64_t step = 0;
    std::vector<double> values;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Return the named instrument, creating it on first use. Names must be
  // non-empty and contain no whitespace (they become CSV columns and
  // state-file tokens). Getting an existing name with a different
  // instrument kind is a fatal error; GetHistogram ignores `bounds` when
  // the histogram already exists.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  // Snapshots every instrument into a new row. `kind` must be a single
  // whitespace-free token.
  void AppendRow(const std::string& kind, int64_t epoch, int64_t step);

  const std::vector<Row>& rows() const { return rows_; }

  // Flattened column names in header order: counters and gauges contribute
  // one column each; a histogram `h` contributes h.count, h.sum, h.min,
  // h.max, then h.le_<bound>... and h.le_inf.
  std::vector<std::string> ColumnNames() const;

  // CSV document: header line, then one line per row. Integer-valued
  // columns print as integers, the rest as shortest round-trippable
  // decimals, so equal runs produce byte-equal CSVs.
  std::string ToCsv() const;

  // One JSON object per row: {"kind":...,"epoch":...,"step":...,
  // "values":{column: number|null}} (null for non-finite values).
  std::string ToJsonLines() const;

  // Writes "<base_path>.csv" and "<base_path>.jsonl" atomically.
  Status WriteSinks(const std::string& base_path) const;

  // Serializes instruments (with exact hex-float values) and rows to a
  // newline-joined token format suitable for embedding in a checkpoint.
  std::string EncodeState() const;

  // Replaces the registry contents with a previously encoded state.
  // InvalidArgument, with the registry left empty (as after Reset()), for
  // a malformed line, histogram bounds that are not strictly increasing
  // (NaN included), a name that appears twice, or a name registered before
  // the call under a different kind. So a decode that succeeds leaves no
  // instrument a later Get of the caller's names could abort on.
  Status DecodeState(std::string_view text);

  // Removes all instruments and rows.
  void Reset();

  // Drops every column whose name starts with "wall/" from a ToCsv()
  // document, yielding the deterministic projection compared bit-for-bit
  // by the determinism tests.
  static std::string StripWallColumns(const std::string& csv);

 private:
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram };
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    const std::string& name() const;
  };

  Entry* Find(const std::string& name);

  std::vector<Entry> entries_;  // registration order == column order
  std::vector<Row> rows_;
};

}  // namespace obs
}  // namespace autocts

#endif  // AUTOCTS_COMMON_METRICS_REGISTRY_H_
