// Shared training / evaluation harness used by all baselines, the AutoCTS
// architecture evaluation stage, and every bench binary.
#ifndef AUTOCTS_MODELS_TRAINER_H_
#define AUTOCTS_MODELS_TRAINER_H_

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/metrics_registry.h"
#include "common/numerics.h"
#include "common/status.h"
#include "data/cts_dataset.h"
#include "data/scaler.h"
#include "data/window_dataset.h"
#include "metrics/metrics.h"
#include "models/forecasting_model.h"

namespace autocts::models {

// Normalized train/val/test window datasets plus everything needed to
// denormalize predictions.
struct PreparedData {
  data::StandardScaler scaler;
  std::vector<data::WindowDataset> splits;  // train, validation, test
  data::WindowSpec window;
  int64_t num_nodes = 0;
  int64_t in_features = 0;
  int64_t target_feature = 0;
  Tensor adjacency;  // undefined when the graph must be learned
  // Copied from CtsDataset: zero readings are missing-data sentinels that
  // the scaler passed through unscaled (see data/scaler.h).
  bool zero_is_missing = false;

  const data::WindowDataset& train() const { return splits[0]; }
  const data::WindowDataset& validation() const { return splits[1]; }
  const data::WindowDataset& test() const { return splits[2]; }
};

// The construction context of a model sized to `data`: its node count,
// features, window and predefined graph (undefined when it must be
// learned), with the given hidden width and seed.
ModelContext MakeModelContext(const PreparedData& data, int64_t hidden_dim,
                              uint64_t seed);

// Normalizes a dataset (z-score fitted on the training portion; zero
// readings are excluded from the fit and pass through unscaled only when
// the dataset marks them as missing via zero_is_missing) and slices it
// into window datasets. Fractions follow Table 4 (0.7/0.1 for METR-LA
// style, 0.6/0.2 for the others).
PreparedData PrepareData(const data::CtsDataset& dataset,
                         const data::WindowSpec& window,
                         double train_fraction, double validation_fraction);

// Adam weight decay and gradient-clipping norm of every training run
// (Section 4.1.4).
inline constexpr double kTrainWeightDecay = 1e-4;
inline constexpr double kTrainClipNorm = 5.0;

struct TrainConfig {
  int64_t epochs = 8;
  int64_t batch_size = 16;
  double learning_rate = 1e-3;
  uint64_t seed = 7;
  bool verbose = false;
  // Cap on batches per epoch (0 = no cap); used to keep bench runtimes
  // bounded at the paper's relative scales.
  int64_t max_batches_per_epoch = 0;
  // Early stopping: stop when the validation L1 loss has not improved for
  // this many consecutive epochs (0 disables), then evaluate the
  // best-validation weights instead of the last ones. The standard
  // protocol of the baselines' reference implementations.
  int64_t early_stop_patience = 0;

  // Numerical-health guard layer (common/numerics.h): every batch the loss
  // value, the pre-clip gradient norm, and the post-step parameters are
  // checked against the numerics::k* thresholds. Detected anomalies either
  // recover (recovery.enabled: skip the poisoned step, or roll back to the
  // epoch-start snapshot with a learning rate backoff) or fail the
  // Status-returning entry point with an attribution message.
  numerics::RecoveryOptions recovery;

  // Test hook for fault injection: invoked on every training batch after
  // the backward pass (gradients populated) and before the gradient health
  // check, so tests can corrupt a gradient or weight at an exact batch to
  // prove detection and recovery end-to-end. Library code never installs
  // one.
  std::function<void(int64_t epoch, int64_t batch, ForecastingModel* model)>
      fault_injection_hook;

  // Observability (common/trace.h + common/metrics_registry.h), sharing the
  // searcher's bit-transparency contract: enabling either layer changes no
  // loss or weight bit.
  //
  // When `trace_path` is non-empty the run executes under the span tracer
  // inside a root "train" span; on exit the Chrome trace JSON is written to
  // `trace_path` and the per-op aggregate table to "<trace_path>.ops.csv".
  // Ignored when a trace is already active (e.g. the searcher owns it).
  std::string trace_path;

  // When `metrics_path` is non-empty (or `metrics` is set), the trainer
  // records per-epoch rows (train/val loss, last gradient norm, batch and
  // recovery counters, wall-clock rates) plus a row every
  // `metrics_every_n_batches` healthy batches (0 = epoch rows only).
  // Sinks "<metrics_path>.csv" / "<metrics_path>.jsonl" are written when
  // training finishes. Unlike the searcher, trainer metrics are not
  // rolled back on recovery: the row log keeps the aborted attempt's rows,
  // which is the more useful record for a non-resumable run.
  std::string metrics_path;
  int64_t metrics_every_n_batches = 0;

  // Optional external registry (not owned); `metrics_path` may be empty.
  obs::MetricsRegistry* metrics = nullptr;

  // Cooperative interruption (common/cancellation.h), checked at every
  // batch boundary and before the final test evaluation. When the token is
  // cancelled, the wall `deadline` expires, or `step_budget` total training
  // batches (0 = unlimited; retried batches count — it budgets work done)
  // have run, TrainAndEvaluateWithStatus returns kCancelled /
  // kDeadlineExceeded instead of a result. An uninterrupted run is
  // bit-identical with or without these set: the checks read no training
  // state.
  const CancellationToken* cancel = nullptr;  // not owned
  Deadline deadline;                          // default: Infinite()
  int64_t step_budget = 0;
};

// Everything the evaluation tables report.
struct EvalResult {
  metrics::PointMetrics average;  // all horizons (Tables 6, 11-16)
  std::vector<metrics::PointMetrics> per_horizon;  // indexed by step
  double rrse = 0.0;   // single-step (Tables 8, 15, 16)
  double corr = 0.0;
  double train_seconds_per_epoch = 0.0;   // Tables 27-34
  double inference_ms_per_window = 0.0;   // Tables 27-34
  int64_t parameter_count = 0;            // Tables 27-34
  // Mean training loss of the last completed epoch; quiet_NaN when no batch
  // ever ran (a 0.0 here used to masquerade as a perfect fit).
  double final_train_loss = std::numeric_limits<double>::quiet_NaN();
  int64_t epochs_run = 0;  // < config.epochs when early stopping triggered

  // Numerical-health outcome (see TrainConfig::recovery).
  int64_t recoveries = 0;      // epoch rollbacks performed
  int64_t skipped_steps = 0;   // poisoned optimizer steps skipped
  std::string last_anomaly;    // "" when the run stayed healthy
};

// Trains with Adam + L1 loss on normalized targets, then evaluates on the
// test split with denormalized masked metrics. CHECK-fails on an
// unrecovered numerical anomaly; callers that must survive divergence use
// the Status-returning variant below.
EvalResult TrainAndEvaluate(ForecastingModel* model, const PreparedData& data,
                            const TrainConfig& config);

// Like TrainAndEvaluate, but a numerical anomaly that recovery cannot (or
// may not) handle returns a non-OK Status naming the anomaly and — when it
// reproduces under the autograd numeric trace — the first op that produced
// a non-finite value. Never aborts on divergence.
StatusOr<EvalResult> TrainAndEvaluateWithStatus(ForecastingModel* model,
                                                const PreparedData& data,
                                                const TrainConfig& config);

// Runs the model over a whole window dataset; returns denormalized
// predictions and truths, each [num_windows, Q, N, 1].
void Predict(ForecastingModel* model, const PreparedData& data,
             const data::WindowDataset& windows, int64_t batch_size,
             Tensor* predictions, Tensor* truths);

// Validation loss (L1, normalized) — used by the searcher and early probes.
double EvaluateLoss(ForecastingModel* model, const PreparedData& data,
                    const data::WindowDataset& windows, int64_t batch_size);

}  // namespace autocts::models

#endif  // AUTOCTS_MODELS_TRAINER_H_
