// Numerical-health guard layer: cheap non-finite scans over tensors, a
// per-step HealthMonitor that watches losses / gradient norms / parameter
// tensors, the RecoveryPolicy that models::Trainer and core::JointSearcher
// share, and an attribution helper that re-runs a diverged computation
// under the autograd numeric trace to name the first op that produced a
// non-finite value.
//
// Rationale: DARTS-style bi-level search is prone to numerical collapse
// (exploding architecture gradients, softmax saturation at low temperature,
// NaN losses), and IEEE comparison semantics make the failure silent — for
// example `NaN > max_norm` is false, so an unguarded gradient clip passes a
// poisoned gradient straight into the optimizer. This layer detects those
// states the step they appear, and the recovery policy (skip the poisoned
// step, roll back to the last good snapshot, back off the learning rate,
// advance the RNG, retry a bounded number of times) turns them into
// recoverable events instead of hours of wasted compute. See DESIGN.md
// "Numerical health and divergence recovery".
#ifndef AUTOCTS_COMMON_NUMERICS_H_
#define AUTOCTS_COMMON_NUMERICS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace autocts::numerics {

// True for normal, subnormal, and zero values; false for NaN and +-Inf.
inline bool IsFiniteValue(double value) {
  // Self-contained (no <cmath>) so it inlines everywhere; a NaN fails both
  // orderings and the Inf subtraction overflows the comparison.
  return value - value == 0.0;
}

// Number of NaN / +-Inf entries in `tensor` (0 for an undefined tensor).
// Parallel over fixed chunks, so the count is deterministic and the scan
// costs one pass at memory bandwidth.
int64_t CountNonFinite(const Tensor& tensor);

// True when every entry of `tensor` is finite (undefined counts as finite).
bool IsFinite(const Tensor& tensor);

// Index of the first parameter whose VALUE contains a non-finite entry, or
// -1 when all are finite.
int64_t FirstNonFiniteParameter(const std::vector<Variable>& parameters);

// Index of the first parameter whose accumulated GRADIENT contains a
// non-finite entry (parameters without a gradient are skipped), or -1.
int64_t FirstNonFiniteGradient(const std::vector<Variable>& parameters);

// --------------------------------------------------------------------------
// Per-step health monitoring.
// --------------------------------------------------------------------------

// Rolling window of recent healthy loss values feeding the spike detector.
inline constexpr int64_t kLossWindow = 16;
// A finite loss exceeding kLossSpikeFactor x the rolling-window mean is
// flagged as a spike (softmax saturation and LR blow-ups show up here one
// or two steps before the first NaN), once kMinLossSamples healthy losses
// have warmed the window up.
inline constexpr double kLossSpikeFactor = 1e3;
inline constexpr int64_t kMinLossSamples = 4;
// A finite pre-clip gradient norm above this is an explosion even though
// clipping would bound it: the direction is already saturated noise.
inline constexpr double kMaxGradNorm = 1e9;

enum class Anomaly {
  kNone = 0,
  kNonFiniteLoss,
  kLossSpike,
  kNonFiniteGradient,
  kGradientExplosion,
  kNonFiniteParameter,
};

// Stable lowercase name, e.g. "non-finite gradient".
const char* AnomalyName(Anomaly anomaly);

// Watches one training loop. All observers return the detected anomaly (or
// kNone) and never mutate the observed values; the caller decides how to
// react (skip / roll back / fail). Healthy observations feed the rolling
// loss window; anomalous ones do not, so one spike does not poison the
// baseline used to judge the next step.
class HealthMonitor {
 public:
  HealthMonitor();

  // Checks a scalar loss: non-finite, or a spike against the rolling mean.
  Anomaly ObserveLoss(double loss);

  // Checks a pre-clip global gradient norm (as reported by
  // optim::ClipGradNormChecked) for non-finiteness or explosion.
  Anomaly ObserveGradientNorm(double pre_clip_norm);

  // Scans parameter values / accumulated gradients for non-finite entries.
  Anomaly CheckParameters(const std::vector<Variable>& parameters);
  Anomaly CheckGradients(const std::vector<Variable>& parameters);

  // Clears the rolling loss window; call after a rollback so stale history
  // does not judge the retried trajectory.
  void Reset();

  // Total anomalies flagged over the monitor's lifetime (survives Reset).
  int64_t anomalies_observed() const { return anomalies_; }

 private:
  Anomaly Flag(Anomaly anomaly);

  std::vector<double> window_;  // ring buffer of recent healthy losses
  int64_t window_pos_ = 0;
  int64_t window_count_ = 0;
  double window_sum_ = 0.0;
  int64_t anomalies_ = 0;
};

// --------------------------------------------------------------------------
// Recovery policy (shared by models::Trainer and core::JointSearcher, see
// DESIGN.md).
// --------------------------------------------------------------------------

struct RecoveryOptions {
  // Master switch. Disabled (the default), a detected anomaly makes the
  // Status-returning train/search entry points fail fast with an
  // attribution message instead of recovering.
  bool enabled = false;
  // Rollbacks to the last good snapshot before the run gives up.
  int64_t max_recoveries = 3;
  // Poisoned optimizer steps skipped in a row before a skip escalates to a
  // rollback (a single bad batch is cheaper to skip than to roll back).
  int64_t max_consecutive_skips = 8;
  // Multiplier applied to every learning rate on each rollback.
  double lr_backoff = 0.5;
  // Searcher only: batches between in-memory last-good snapshots.
  int64_t snapshot_every_n_batches = 8;
};

// The recovery state machine both loops run: the skip streak, the rollback
// budget and the learning-rate scale. Each loop keeps its own snapshot,
// restore, poisoned-parameter rule and call order; this type decides when a
// skip escalates and what a rollback costs.
class RecoveryPolicy {
 public:
  explicit RecoveryPolicy(const RecoveryOptions& options);

  // After an anomaly: true when the poisoned step may simply be dropped,
  // i.e. the parameters are still clean and the skip streak stays within
  // max_consecutive_skips. False means the caller must roll back.
  bool TrySkip(bool parameters_poisoned);

  // After a healthy step: the skip streak ends.
  void OnHealthyStep() { consecutive_skips_ = 0; }

  // Spends one rollback. With the budget exhausted, returns Internal naming
  // `context`; otherwise backs lr_scale() off by lr_backoff and resets
  // `monitor` (its loss window judged the abandoned trajectory) and the
  // skip streak. The caller then restores its snapshot and applies
  // lr_scale() to its learning rates.
  Status Rollback(const std::string& context, HealthMonitor* monitor);

  // Multiplier on every base learning rate: 1 until the first rollback.
  double lr_scale() const { return lr_scale_; }

 private:
  RecoveryOptions options_;
  int64_t recoveries_left_;
  int64_t consecutive_skips_ = 0;
  double lr_scale_ = 1.0;
};

// --------------------------------------------------------------------------
// Divergence attribution.
// --------------------------------------------------------------------------

// Re-runs `loss_fn` (forward + backward) under the autograd numeric trace
// (see autograd/variable.h) and describes the first source of non-finite
// values: the producing op when one exists on the tape, otherwise the first
// named parameter whose gradient or value is non-finite (e.g. corruption
// injected outside the tape). Clears the parameters' gradients before and
// after, so it is safe to call between optimizer steps. `post_backward`
// (optional) replays any out-of-tape mutation of the original failing step,
// such as a fault-injection hook.
std::string AttributeDivergence(
    const std::function<Variable()>& loss_fn,
    const std::vector<std::pair<std::string, Variable>>& named_parameters,
    const std::function<void()>& post_backward = nullptr);

}  // namespace autocts::numerics

#endif  // AUTOCTS_COMMON_NUMERICS_H_
