#include "common/numerics.h"

#include <cmath>

#include "common/macros.h"
#include "common/parallel.h"

namespace autocts::numerics {

namespace {

// Same grain the reduction kernels in tensor/tensor_ops.cc use; the scan is
// a pure read at memory bandwidth.
constexpr int64_t kScanGrain = 8192;

}  // namespace

int64_t CountNonFinite(const Tensor& tensor) {
  if (!tensor.defined() || tensor.size() == 0) return 0;
  const double* values = tensor.data();
  // Integer counts are exact in double far beyond any tensor size, so the
  // deterministic ParallelSum reduction doubles as a counter.
  const double count =
      ParallelSum(0, tensor.size(), kScanGrain, [&](int64_t lo, int64_t hi) {
        double bad = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          if (!std::isfinite(values[i])) bad += 1.0;
        }
        return bad;
      });
  return static_cast<int64_t>(count);
}

bool IsFinite(const Tensor& tensor) { return CountNonFinite(tensor) == 0; }

int64_t FirstNonFiniteParameter(const std::vector<Variable>& parameters) {
  for (size_t i = 0; i < parameters.size(); ++i) {
    if (!IsFinite(parameters[i].value())) return static_cast<int64_t>(i);
  }
  return -1;
}

int64_t FirstNonFiniteGradient(const std::vector<Variable>& parameters) {
  for (size_t i = 0; i < parameters.size(); ++i) {
    if (parameters[i].has_grad() && !IsFinite(parameters[i].grad())) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

const char* AnomalyName(Anomaly anomaly) {
  switch (anomaly) {
    case Anomaly::kNone:
      return "none";
    case Anomaly::kNonFiniteLoss:
      return "non-finite loss";
    case Anomaly::kLossSpike:
      return "loss spike";
    case Anomaly::kNonFiniteGradient:
      return "non-finite gradient";
    case Anomaly::kGradientExplosion:
      return "gradient explosion";
    case Anomaly::kNonFiniteParameter:
      return "non-finite parameter";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor() { window_.assign(kLossWindow, 0.0); }

Anomaly HealthMonitor::Flag(Anomaly anomaly) {
  if (anomaly != Anomaly::kNone) ++anomalies_;
  return anomaly;
}

Anomaly HealthMonitor::ObserveLoss(double loss) {
  if (!IsFiniteValue(loss)) return Flag(Anomaly::kNonFiniteLoss);
  if (window_count_ >= kMinLossSamples) {
    const double mean = window_sum_ / static_cast<double>(window_count_);
    // `mean` can legitimately approach zero late in training; the +1e-12
    // floor keeps the threshold meaningful without flagging tiny absolute
    // wobbles around zero.
    if (loss > kLossSpikeFactor * (mean + 1e-12)) {
      return Flag(Anomaly::kLossSpike);
    }
  }
  // Healthy: feed the rolling window (evicting the oldest entry once full).
  if (window_count_ == static_cast<int64_t>(window_.size())) {
    window_sum_ -= window_[window_pos_];
  } else {
    ++window_count_;
  }
  window_[window_pos_] = loss;
  window_sum_ += loss;
  window_pos_ = (window_pos_ + 1) % static_cast<int64_t>(window_.size());
  return Anomaly::kNone;
}

Anomaly HealthMonitor::ObserveGradientNorm(double pre_clip_norm) {
  if (!IsFiniteValue(pre_clip_norm)) return Flag(Anomaly::kNonFiniteGradient);
  if (pre_clip_norm > kMaxGradNorm) {
    return Flag(Anomaly::kGradientExplosion);
  }
  return Anomaly::kNone;
}

Anomaly HealthMonitor::CheckParameters(
    const std::vector<Variable>& parameters) {
  return FirstNonFiniteParameter(parameters) >= 0
             ? Flag(Anomaly::kNonFiniteParameter)
             : Anomaly::kNone;
}

Anomaly HealthMonitor::CheckGradients(const std::vector<Variable>& parameters) {
  return FirstNonFiniteGradient(parameters) >= 0
             ? Flag(Anomaly::kNonFiniteGradient)
             : Anomaly::kNone;
}

void HealthMonitor::Reset() {
  window_pos_ = 0;
  window_count_ = 0;
  window_sum_ = 0.0;
}

RecoveryPolicy::RecoveryPolicy(const RecoveryOptions& options)
    : options_(options), recoveries_left_(options.max_recoveries) {}

bool RecoveryPolicy::TrySkip(bool parameters_poisoned) {
  return !parameters_poisoned &&
         ++consecutive_skips_ <= options_.max_consecutive_skips;
}

Status RecoveryPolicy::Rollback(const std::string& context,
                                HealthMonitor* monitor) {
  if (recoveries_left_ <= 0) {
    return Status::Internal(context + "; recovery budget exhausted after " +
                            std::to_string(options_.max_recoveries) +
                            " rollbacks");
  }
  --recoveries_left_;
  lr_scale_ *= options_.lr_backoff;
  monitor->Reset();
  consecutive_skips_ = 0;
  return Status::Ok();
}

std::string AttributeDivergence(
    const std::function<Variable()>& loss_fn,
    const std::vector<std::pair<std::string, Variable>>& named_parameters,
    const std::function<void()>& post_backward) {
  auto clear_grads = [&] {
    for (const auto& [name, parameter] : named_parameters) {
      Variable handle = parameter;  // cheap shared handle
      handle.ClearGrad();
    }
  };
  clear_grads();
  BeginNumericTrace();
  Variable loss = loss_fn();
  loss.Backward();
  if (post_backward) post_backward();
  const NumericTraceReport report = EndNumericTrace();

  std::string description;
  if (report.triggered) {
    description = "first non-finite value produced by " + report.ToString();
  } else {
    // Nothing on the tape went bad: the corruption lives in a leaf. Name
    // the first offending parameter gradient or value.
    description = "anomaly did not reproduce under the numeric trace";
    for (const auto& [name, parameter] : named_parameters) {
      if (parameter.has_grad() && !IsFinite(parameter.grad())) {
        description = "non-finite gradient on parameter '" + name +
                      "' (injected outside the autograd tape)";
        break;
      }
      if (!IsFinite(parameter.value())) {
        description = "non-finite value in parameter '" + name + "'";
        break;
      }
    }
  }
  clear_grads();
  return description;
}

}  // namespace autocts::numerics
