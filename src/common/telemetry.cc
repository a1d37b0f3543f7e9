#include "common/telemetry.h"

#include "common/logging.h"

namespace autocts::obs {

fault::RetryOutcome WriteSinksWithRetry(const MetricsRegistry& registry,
                                        const std::string& base_path,
                                        const fault::RetryPolicy& policy) {
  const fault::RetryOutcome outcome =
      fault::RetryCall(policy, "metrics sinks " + base_path,
                       [&] { return registry.WriteSinks(base_path); });
  if (!outcome.status.ok()) {
    AUTOCTS_LOG(WARNING) << "metrics sinks write failed: "
                         << outcome.status.ToString();
  }
  return outcome;
}

TelemetryGuard::TelemetryGuard(const std::string& trace_path,
                               const char* root_span,
                               const MetricsRegistry* metrics,
                               std::string metrics_path,
                               fault::RetryPolicy policy)
    : metrics_(metrics), metrics_path_(std::move(metrics_path)),
      policy_(std::move(policy)) {
  if (trace_path.empty() || trace::Active()) return;
  trace_path_ = trace_path;
  trace::Start();
  root_.emplace(root_span);
}

TelemetryGuard::~TelemetryGuard() {
  if (!trace_path_.empty()) {
    root_.reset();  // close the root while collection is still active
    trace::Stop();
    if (!trace::WriteChromeTrace(trace_path_) ||
        !trace::WriteAggregateCsv(trace_path_ + ".ops.csv")) {
      AUTOCTS_LOG(WARNING) << "failed to write trace output at "
                           << trace_path_;
    }
  }
  if (metrics_ != nullptr && !metrics_path_.empty()) {
    WriteSinksWithRetry(*metrics_, metrics_path_, policy_);
  }
}

}  // namespace autocts::obs
