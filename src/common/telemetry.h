// Run-scoped telemetry shared by the searcher, the trainer and the eval
// scheduler: one retried write of the metrics sinks, and one RAII guard
// that owns a run's trace session and flushes its sinks on every exit path.
#ifndef AUTOCTS_COMMON_TELEMETRY_H_
#define AUTOCTS_COMMON_TELEMETRY_H_

#include <optional>
#include <string>

#include "common/fault.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace autocts::obs {

// Writes the CSV + JSONL sinks of `registry` at `base_path` under `policy`.
// Telemetry never kills a run: a write that still fails after its retries
// is logged as a warning. Callers count retries from the outcome.
fault::RetryOutcome WriteSinksWithRetry(const MetricsRegistry& registry,
                                        const std::string& base_path,
                                        const fault::RetryPolicy& policy);

// Owns the telemetry of one run. Construction starts the tracer under a
// `root_span` span (a string literal, as trace::Scope requires) when
// `trace_path` is set and no trace is running yet.
// Destruction — any exit path, including error returns — closes the root
// span, stops collection, writes the Chrome JSON plus
// "<trace_path>.ops.csv", then writes the metrics sinks at `metrics_path`
// (when a registry and a path are both given).
class TelemetryGuard {
 public:
  TelemetryGuard(const std::string& trace_path, const char* root_span,
                 const MetricsRegistry* metrics, std::string metrics_path,
                 fault::RetryPolicy policy);
  ~TelemetryGuard();
  TelemetryGuard(const TelemetryGuard&) = delete;
  TelemetryGuard& operator=(const TelemetryGuard&) = delete;

 private:
  std::string trace_path_;
  std::optional<trace::Scope> root_;
  const MetricsRegistry* metrics_;
  std::string metrics_path_;
  fault::RetryPolicy policy_;
};

}  // namespace autocts::obs

#endif  // AUTOCTS_COMMON_TELEMETRY_H_
