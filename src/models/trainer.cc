#include "models/trainer.h"

#include <limits>
#include <optional>
#include <string>

#include "autograd/variable_ops.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "nn/state_dict.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

namespace autocts::models {

namespace {

// Trainer instrument set (registration order == CSV column order). Names
// follow the "wall/" determinism convention of common/metrics_registry.h.
constexpr char kTrainLoss[] = "train_loss";
constexpr char kValLoss[] = "val_loss";
constexpr char kGradNorm[] = "grad_norm";
constexpr char kBatchesTotal[] = "batches_total";
constexpr char kSkippedSteps[] = "skipped_steps";
constexpr char kRecoveries[] = "recoveries";
constexpr char kEpochSec[] = "wall/epoch_sec";
constexpr char kBatchesPerSec[] = "wall/batches_per_sec";

void RegisterTrainMetrics(obs::MetricsRegistry* registry) {
  registry->GetGauge(kTrainLoss);
  registry->GetGauge(kValLoss);
  registry->GetGauge(kGradNorm);
  registry->GetCounter(kBatchesTotal);
  registry->GetCounter(kSkippedSteps);
  registry->GetCounter(kRecoveries);
  registry->GetGauge(kEpochSec);
  registry->GetGauge(kBatchesPerSec);
}

}  // namespace

ModelContext MakeModelContext(const PreparedData& data, int64_t hidden_dim,
                              uint64_t seed) {
  ModelContext context;
  context.num_nodes = data.num_nodes;
  context.in_features = data.in_features;
  context.input_length = data.window.input_length;
  context.output_length = data.window.output_length;
  context.hidden_dim = hidden_dim;
  context.adjacency = data.adjacency;
  context.seed = seed;
  return context;
}

PreparedData PrepareData(const data::CtsDataset& dataset,
                         const data::WindowSpec& window,
                         double train_fraction, double validation_fraction) {
  PreparedData prepared;
  prepared.window = window;
  prepared.num_nodes = dataset.num_nodes();
  prepared.in_features = dataset.num_features();
  prepared.target_feature = window.target_feature;
  prepared.adjacency = dataset.adjacency;
  prepared.zero_is_missing = dataset.zero_is_missing;

  const data::DataSplit raw = data::ChronologicalSplit(
      dataset.values, train_fraction, validation_fraction);
  // Masking is a per-dataset property: traffic-speed zeros are sensor
  // dropouts (mask and pass through unscaled), solar nighttime zeros are
  // real values (scale like everything else).
  prepared.scaler.Fit(raw.train, /*mask_null=*/dataset.zero_is_missing);
  prepared.splits.emplace_back(prepared.scaler.Transform(raw.train), window);
  prepared.splits.emplace_back(prepared.scaler.Transform(raw.validation),
                               window);
  prepared.splits.emplace_back(prepared.scaler.Transform(raw.test), window);
  return prepared;
}

EvalResult TrainAndEvaluate(ForecastingModel* model, const PreparedData& data,
                            const TrainConfig& config) {
  StatusOr<EvalResult> result = TrainAndEvaluateWithStatus(model, data, config);
  AUTOCTS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

StatusOr<EvalResult> TrainAndEvaluateWithStatus(ForecastingModel* model,
                                                const PreparedData& data,
                                                const TrainConfig& config) {
  AUTOCTS_CHECK(model != nullptr);
  EvalResult result;
  result.parameter_count = model->NumParameters();

  obs::MetricsRegistry own_registry;
  obs::MetricsRegistry* metrics = config.metrics;
  if (metrics == nullptr && !config.metrics_path.empty()) {
    metrics = &own_registry;
  }
  if (metrics != nullptr) RegisterTrainMetrics(metrics);
  obs::TelemetryGuard telemetry(config.trace_path, "train", metrics,
                                config.metrics_path, fault::RetryPolicy());

  optim::Adam optimizer(model->Parameters(),
                        {.learning_rate = config.learning_rate,
                         .weight_decay = kTrainWeightDecay});
  Rng rng(config.seed);
  numerics::HealthMonitor monitor;
  numerics::RecoveryPolicy recovery(config.recovery);
  const std::vector<Variable> parameters = model->Parameters();

  // Best and last-good weights. Parameters only: a restore keeps the
  // BatchNorm running statistics the model has accumulated.
  const nn::TensorSlots weights = nn::VariableSlots(model->NamedParameters());
  const auto restore_weights = [&](const nn::NamedTensors& snapshot) {
    const Status status = nn::CheckTensors(snapshot, weights, "parameter");
    AUTOCTS_CHECK(status.ok()) << status.ToString();
    nn::CopyTensors(snapshot, weights);
  };

  // Last-good state for the rollback tier: captured at the start of every
  // epoch while healthy, restored wholesale when an epoch diverges beyond
  // what step-skipping can absorb.
  nn::NamedTensors good_weights;
  optim::AdamState good_optimizer_state;
  RngState good_rng_state;
  double good_best_validation_loss = 0.0;
  int64_t good_epochs_without_improvement = 0;

  model->SetTraining(true);
  double total_train_seconds = 0.0;
  double best_validation_loss = std::numeric_limits<double>::infinity();
  int64_t epochs_without_improvement = 0;
  std::optional<nn::NamedTensors> best_weights;
  bool stop_early = false;
  int64_t total_batches = 0;  // across epochs, retries included
  for (int64_t epoch = 0; epoch < config.epochs && !stop_early; ++epoch) {
    if (config.recovery.enabled) {
      good_weights = nn::CaptureTensors(weights);
      good_optimizer_state = optimizer.ExportState();
      good_rng_state = rng.GetState();
      good_best_validation_loss = best_validation_loss;
      good_epochs_without_improvement = epochs_without_improvement;
    }
    bool rollback = false;
    std::string anomaly_context;
    Stopwatch epoch_timer;
    double epoch_loss = 0.0;
    int64_t batches_done = 0;
    int64_t batch_index = -1;
    for (const std::vector<int64_t>& batch :
         data.train().EpochBatches(config.batch_size, &rng)) {
      ++batch_index;
      if (config.max_batches_per_epoch > 0 &&
          batches_done >= config.max_batches_per_epoch) {
        break;
      }
      const Status interrupt =
          CheckInterrupt(config.cancel, config.deadline, total_batches,
                         config.step_budget, model->name() + " training");
      if (!interrupt.ok()) return interrupt;
      ++total_batches;
      Tensor x, y;
      data.train().GetBatch(batch, &x, &y);
      const auto batch_loss_fn = [&] {
        return ag::L1Loss(model->Forward(ag::Constant(x)), ag::Constant(y));
      };
      Variable loss = batch_loss_fn();
      optimizer.ZeroGrad();
      const double loss_value = loss.value().item();
      double batch_grad_norm = 0.0;
      numerics::Anomaly anomaly = monitor.ObserveLoss(loss_value);
      if (anomaly == numerics::Anomaly::kNone) {
        loss.Backward();
        if (config.fault_injection_hook) {
          config.fault_injection_hook(epoch, batch_index, model);
        }
        // A false return means a non-finite norm (gradients untouched),
        // which ObserveGradientNorm flags from the norm value itself.
        double pre_clip_norm = 0.0;
        optim::ClipGradNormChecked(parameters, kTrainClipNorm,
                                   &pre_clip_norm);
        batch_grad_norm = pre_clip_norm;
        anomaly = monitor.ObserveGradientNorm(pre_clip_norm);
        if (anomaly == numerics::Anomaly::kNone) {
          optimizer.Step();
          // Catches both an update that overflowed a weight and a weight
          // corrupted directly (e.g. by the fault-injection hook).
          anomaly = monitor.CheckParameters(parameters);
        }
      }
      if (anomaly == numerics::Anomaly::kNone) {
        epoch_loss += loss_value;
        ++batches_done;
        recovery.OnHealthyStep();
        if (metrics != nullptr) {
          metrics->GetCounter(kBatchesTotal)->Increment();
          metrics->GetGauge(kTrainLoss)->Set(loss_value);
          metrics->GetGauge(kGradNorm)->Set(batch_grad_norm);
          if (config.metrics_every_n_batches > 0 &&
              metrics->GetCounter(kBatchesTotal)->value() %
                      config.metrics_every_n_batches ==
                  0) {
            metrics->AppendRow("step", epoch, batch_index);
          }
        }
        continue;
      }

      anomaly_context = model->name() + " epoch " + std::to_string(epoch) +
                        " batch " + std::to_string(batch_index) + ": " +
                        numerics::AnomalyName(anomaly);
      result.last_anomaly = anomaly_context;
      optimizer.ZeroGrad();
      if (!config.recovery.enabled) {
        std::function<void()> replay_hook;
        if (config.fault_injection_hook) {
          replay_hook = [&, epoch, batch_index] {
            config.fault_injection_hook(epoch, batch_index, model);
          };
        }
        const std::string attribution = numerics::AttributeDivergence(
            batch_loss_fn, model->NamedParameters(), replay_hook);
        return Status::Internal(anomaly_context + "; " + attribution);
      }
      // Step-skip tier: the parameters are still clean, so dropping this
      // one optimizer step is enough — unless skips pile up, which means
      // the run itself has gone bad.
      if (recovery.TrySkip(anomaly == numerics::Anomaly::kNonFiniteParameter)) {
        ++result.skipped_steps;
        if (metrics != nullptr) {
          metrics->GetCounter(kSkippedSteps)->Increment();
        }
        continue;
      }
      rollback = true;
      break;
    }
    double attempt_seconds = 0.0;
    if (!rollback) {
      attempt_seconds = epoch_timer.Seconds();
      total_train_seconds += attempt_seconds;
      result.final_train_loss =
          batches_done > 0 ? epoch_loss / static_cast<double>(batches_done)
                           : std::numeric_limits<double>::quiet_NaN();
      ++result.epochs_run;
      if (config.verbose) {
        AUTOCTS_LOG(INFO) << model->name() << " epoch " << epoch + 1 << "/"
                          << config.epochs << " loss "
                          << result.final_train_loss;
      }
      if (config.early_stop_patience > 0) {
        const double validation_loss = EvaluateLoss(
            model, data, data.validation(), config.batch_size);
        if (metrics != nullptr && numerics::IsFiniteValue(validation_loss)) {
          metrics->GetGauge(kValLoss)->Set(validation_loss);
        }
        if (!numerics::IsFiniteValue(validation_loss)) {
          // A non-finite validation loss is an immediate anomaly: it must
          // never be compared against the best (NaN comparisons are false)
          // or snapshotted as "best weights".
          anomaly_context = model->name() + " epoch " + std::to_string(epoch) +
                            ": non-finite validation loss";
          result.last_anomaly = anomaly_context;
          if (config.recovery.enabled) {
            rollback = true;
            // The aborted attempt's bookkeeping is undone; the retry will
            // re-run this epoch from the last-good snapshot.
            --result.epochs_run;
            total_train_seconds -= attempt_seconds;
          } else if (++epochs_without_improvement >=
                     config.early_stop_patience) {
            stop_early = true;
          }
        } else if (validation_loss < best_validation_loss - 1e-9) {
          best_validation_loss = validation_loss;
          epochs_without_improvement = 0;
          best_weights = nn::CaptureTensors(weights);
        } else if (++epochs_without_improvement >=
                   config.early_stop_patience) {
          if (config.verbose) {
            AUTOCTS_LOG(INFO) << model->name() << " early stop after epoch "
                              << epoch + 1;
          }
          stop_early = true;
        }
        model->SetTraining(true);
      }
      if (metrics != nullptr && !rollback) {
        // The aggregate gauges already hold the last batch's values; the
        // loss gauge is re-pointed at the epoch mean, which is what the
        // per-epoch row should report.
        metrics->GetGauge(kTrainLoss)->Set(result.final_train_loss);
        metrics->GetGauge(kEpochSec)->Set(attempt_seconds);
        metrics->GetGauge(kBatchesPerSec)
            ->Set(attempt_seconds > 0.0
                      ? static_cast<double>(batches_done) / attempt_seconds
                      : 0.0);
        metrics->AppendRow("epoch", epoch, batches_done);
      }
    }
    if (rollback) {
      const Status budget = recovery.Rollback(anomaly_context, &monitor);
      if (!budget.ok()) return budget;
      ++result.recoveries;
      if (metrics != nullptr) {
        metrics->GetCounter(kRecoveries)->Increment();
      }
      restore_weights(good_weights);
      const Status import_status = optimizer.ImportState(good_optimizer_state);
      AUTOCTS_CHECK(import_status.ok()) << import_status.ToString();
      rng.SetState(good_rng_state);
      // One extra draw perturbs the retry's shuffle so the epoch does not
      // replay the exact batch sequence that diverged.
      (void)rng.Next();
      best_validation_loss = good_best_validation_loss;
      epochs_without_improvement = good_epochs_without_improvement;
      optimizer.SetLearningRate(config.learning_rate * recovery.lr_scale());
      model->SetTraining(true);
      if (config.verbose) {
        AUTOCTS_LOG(INFO) << model->name() << " recovery #" << result.recoveries
                          << ": " << anomaly_context << "; lr scaled to "
                          << config.learning_rate * recovery.lr_scale();
      }
      --epoch;  // retry the same epoch index from the restored snapshot
    }
  }
  result.train_seconds_per_epoch =
      result.epochs_run > 0 ? total_train_seconds / result.epochs_run : 0.0;
  if (best_weights) restore_weights(*best_weights);

  // A token cancelled (or a deadline expired) during the last epoch's tail
  // is honored before the test evaluation, which can be long on large
  // datasets. The step budget is not re-checked: training completed within
  // it, so the result is owed.
  const Status interrupt =
      CheckInterrupt(config.cancel, config.deadline, /*steps_done=*/0,
                     /*step_budget=*/0,
                     model->name() + " before test evaluation");
  if (!interrupt.ok()) return interrupt;

  // Test evaluation with denormalized masked metrics.
  model->SetTraining(false);
  Tensor predictions, truths;
  Stopwatch inference_timer;
  Predict(model, data, data.test(), config.batch_size, &predictions, &truths);
  const int64_t windows = predictions.dim(0);
  result.inference_ms_per_window =
      windows > 0 ? inference_timer.Millis() / static_cast<double>(windows)
                  : 0.0;

  result.average = metrics::ComputeMetrics(predictions, truths);
  const int64_t horizons = predictions.dim(1);
  result.per_horizon.reserve(horizons);
  for (int64_t h = 0; h < horizons; ++h) {
    result.per_horizon.push_back(
        metrics::ComputeHorizonMetrics(predictions, truths, h));
  }
  result.rrse = metrics::Rrse(predictions, truths);
  result.corr = metrics::Corr(predictions, truths);
  model->SetTraining(true);
  return result;
}

void Predict(ForecastingModel* model, const PreparedData& data,
             const data::WindowDataset& windows, int64_t batch_size,
             Tensor* predictions, Tensor* truths) {
  AUTOCTS_TRACE_SCOPE("train/predict");
  const NoGradScope no_grad;
  const bool was_training = model->training();
  model->SetTraining(false);
  std::vector<Tensor> prediction_parts;
  std::vector<Tensor> truth_parts;
  const std::vector<int64_t> all = windows.AllIndices();
  for (int64_t start = 0; start < static_cast<int64_t>(all.size());
       start += batch_size) {
    const int64_t end = std::min<int64_t>(all.size(), start + batch_size);
    const std::vector<int64_t> batch(all.begin() + start, all.begin() + end);
    Tensor x, y;
    windows.GetBatch(batch, &x, &y);
    const Variable prediction = model->Forward(ag::Constant(x));
    prediction_parts.push_back(prediction.value());
    truth_parts.push_back(y);
  }
  AUTOCTS_CHECK(!prediction_parts.empty());
  *predictions = data.scaler.InverseTransformFeature(
      Concat(prediction_parts, 0), data.target_feature);
  *truths = data.scaler.InverseTransformFeature(Concat(truth_parts, 0),
                                                data.target_feature);
  model->SetTraining(was_training);
}

double EvaluateLoss(ForecastingModel* model, const PreparedData& data,
                    const data::WindowDataset& windows, int64_t batch_size) {
  (void)data;
  AUTOCTS_TRACE_SCOPE("train/eval_loss");
  const NoGradScope no_grad;
  const bool was_training = model->training();
  model->SetTraining(false);
  double total = 0.0;
  int64_t batches = 0;
  const std::vector<int64_t> all = windows.AllIndices();
  for (int64_t start = 0; start < static_cast<int64_t>(all.size());
       start += batch_size) {
    const int64_t end = std::min<int64_t>(all.size(), start + batch_size);
    const std::vector<int64_t> batch(all.begin() + start, all.begin() + end);
    Tensor x, y;
    windows.GetBatch(batch, &x, &y);
    const Variable prediction = model->Forward(ag::Constant(x));
    total += ag::L1Loss(prediction, ag::Constant(y)).value().item();
    ++batches;
  }
  model->SetTraining(was_training);
  return batches > 0 ? total / static_cast<double>(batches) : 0.0;
}

}  // namespace autocts::models
