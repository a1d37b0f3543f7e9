#include "core/searcher.h"

#include "core/cost_model.h"
#include "core/search_checkpoint.h"
#include "core/search_metrics.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/buffer_pool.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

#include <cmath>

namespace autocts::core {

double SearchTemperature(int64_t epoch) {
  return std::max(kTauMin, kTauInit * std::pow(kTauDecay, epoch));
}

SearchOptions AutoStgLiteOptions() {
  SearchOptions options;
  options.supernet.op_set = AutoStgOperatorSet();
  options.use_macro = false;  // AutoSTG stacks homogeneous ST-blocks.
  return options;
}

SearchOptions MacroOnlyOptions(SearchOptions base) {
  base.supernet.op_set = HumanDesignedBlockSet();
  base.supernet.micro_nodes = 2;
  base.supernet.partial_denominator = 1;
  base.use_temperature = false;
  return base;
}

JointSearcher::JointSearcher(SearchOptions options)
    : options_(std::move(options)) {}

namespace {

// Gradient tensors of `parameters` (zeros where no grad was accumulated).
std::vector<Tensor> CollectGrads(const std::vector<Variable>& parameters) {
  std::vector<Tensor> grads;
  grads.reserve(parameters.size());
  for (const Variable& parameter : parameters) {
    grads.push_back(parameter.has_grad() ? parameter.grad().Clone()
                                         : Tensor::Zeros(parameter.shape()));
  }
  return grads;
}

void ZeroAll(std::vector<Variable>* parameters) {
  for (Variable& parameter : *parameters) parameter.ClearGrad();
}

// parameters += scale * deltas.
void AxpyInPlace(std::vector<Variable>* parameters,
                 const std::vector<Tensor>& deltas, double scale) {
  for (size_t i = 0; i < parameters->size(); ++i) {
    autocts::AddInPlace(&(*parameters)[i].mutable_value(),
               autocts::MulScalar(deltas[i], scale));
  }
}

}  // namespace

double JointSearcher::UnrolledThetaStep(
    Supernet* supernet, optim::Adam* theta_optimizer,
    const std::function<Variable()>& train_loss_fn,
    const std::function<Variable()>& val_loss_fn,
    numerics::HealthMonitor* monitor, numerics::Anomaly* anomaly) const {
  std::vector<Variable> weights = supernet->Parameters();
  std::vector<Variable> thetas = supernet->ArchParameters();
  const double xi = kWeightLearningRate;

  // 1. grad_w L_train at (w, Theta).
  ZeroAll(&weights);
  ZeroAll(&thetas);
  train_loss_fn().Backward();
  const std::vector<Tensor> grad_w_train = CollectGrads(weights);

  // 2. Virtual step: w' = w - xi * grad_w L_train.
  AxpyInPlace(&weights, grad_w_train, -xi);

  // 3. At w': grad_Theta L_val (leading term) and v = grad_w' L_val.
  ZeroAll(&weights);
  ZeroAll(&thetas);
  Variable val_loss = val_loss_fn();
  val_loss.Backward();
  const double val_loss_value = val_loss.value().item();
  const std::vector<Tensor> leading_term = CollectGrads(thetas);
  const std::vector<Tensor> v = CollectGrads(weights);

  // Undo the virtual step: back to w.
  AxpyInPlace(&weights, grad_w_train, xi);

  // Bail out before the expensive Hessian-vector product when the loss is
  // already bad; w has been restored (a NaN in grad_w_train is not undone
  // by the Axpy pair, but the caller's parameter check catches that).
  *anomaly = monitor->ObserveLoss(val_loss_value);
  if (*anomaly != numerics::Anomaly::kNone) {
    ZeroAll(&weights);
    ZeroAll(&thetas);
    return val_loss_value;
  }

  // 4. Hessian-vector product by central finite differences:
  //    grad2_{Theta,w} L_train . v
  //      ~ [grad_Theta L_train(w + eps v) - grad_Theta L_train(w - eps v)]
  //        / (2 eps)
  double v_norm_sq = 0.0;
  for (const Tensor& g : v) v_norm_sq += autocts::SumSquares(g);
  const double v_norm = std::sqrt(v_norm_sq);
  const double eps = kUnrolledEpsilon / std::max(v_norm, 1e-12);

  AxpyInPlace(&weights, v, eps);
  ZeroAll(&weights);
  ZeroAll(&thetas);
  train_loss_fn().Backward();
  const std::vector<Tensor> grad_theta_plus = CollectGrads(thetas);

  AxpyInPlace(&weights, v, -2.0 * eps);
  ZeroAll(&weights);
  ZeroAll(&thetas);
  train_loss_fn().Backward();
  const std::vector<Tensor> grad_theta_minus = CollectGrads(thetas);

  AxpyInPlace(&weights, v, eps);  // Restore w exactly.

  // 5. Assemble grad_Theta = leading - xi * (g+ - g-) / (2 eps) and step.
  ZeroAll(&weights);
  ZeroAll(&thetas);
  for (size_t i = 0; i < thetas.size(); ++i) {
    Tensor correction = autocts::Sub(grad_theta_plus[i], grad_theta_minus[i]);
    autocts::ScaleInPlace(&correction, -xi / (2.0 * eps));
    Tensor total = leading_term[i].Clone();
    autocts::AddInPlace(&total, correction);
    thetas[i].AccumulateGrad(total);
  }
  double pre_clip_norm = 0.0;
  optim::ClipGradNormChecked(thetas, kSearchClipNorm, &pre_clip_norm);
  *anomaly = monitor->ObserveGradientNorm(pre_clip_norm);
  if (*anomaly == numerics::Anomaly::kNone) theta_optimizer->Step();
  ZeroAll(&thetas);
  return val_loss_value;
}

SearchResult JointSearcher::Search(const models::PreparedData& data) {
  StatusOr<SearchResult> result = SearchWithStatus(data);
  AUTOCTS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

StatusOr<SearchResult> JointSearcher::SearchWithStatus(
    const models::PreparedData& data) {
  Stopwatch timer;
  Rng rng(options_.seed);

  // Observability. The registry and tracer are passive recorders: every
  // value below is read from state the search computed anyway, so the
  // trajectory is bit-identical with or without them.
  obs::MetricsRegistry own_registry;
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr && !options_.metrics_path.empty()) {
    metrics = &own_registry;
  }
  if (metrics != nullptr) RegisterSearchMetrics(metrics);
  obs::TelemetryGuard telemetry(options_.trace_path, "search", metrics,
                                options_.metrics_path, options_.io_retry);
  // Covers everything up to the epoch loop (supernet + optimizer
  // construction, pseudo-split shuffle, checkpoint restore), which would
  // otherwise show up as unattributed root self-time in the aggregate
  // table.
  std::optional<trace::Scope> setup_span;
  if (trace::Active()) setup_span.emplace("search/setup");

  // Build the supernet; the "w/o macro search" variant searches a single
  // block.
  SupernetConfig supernet_config = options_.supernet;
  const int64_t eval_blocks = supernet_config.macro_blocks;
  if (!options_.use_macro) supernet_config.macro_blocks = 1;

  Supernet supernet(supernet_config,
                    models::MakeModelContext(data, supernet_config.hidden_dim,
                                             rng.Next()));

  optim::Adam weight_optimizer(supernet.Parameters(),
                               {.learning_rate = kWeightLearningRate,
                                .weight_decay = kWeightDecay});
  optim::Adam theta_optimizer(supernet.ArchParameters(),
                              {.learning_rate = options_.theta_learning_rate,
                               .beta1 = kThetaBeta1,
                               .beta2 = kThetaBeta2,
                               .weight_decay = kThetaWeightDecay});

  // Divide the training windows evenly into pseudo-train / pseudo-val.
  const int64_t total = data.train().NumSamples();
  AUTOCTS_CHECK_GT(total, 1) << "not enough training windows to search";
  std::vector<int64_t> order(total);
  for (int64_t i = 0; i < total; ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<int64_t> pseudo_train(order.begin(), order.begin() + total / 2);
  std::vector<int64_t> pseudo_val(order.begin() + total / 2, order.end());

  SearchResult result;
  result.supernet_parameters = supernet.NumParameters();

  // Crash-safe resume: restore the newest loadable checkpoint generation
  // whose configuration matches, then continue from its cursor. Everything
  // that shapes the remaining trajectory (weights, Theta, Adam moments,
  // Rng, tau, split orders, loss accumulator) is restored bit-for-bit, so
  // the resumed run equals an uninterrupted one exactly.
  const bool checkpointing = !options_.checkpoint_path.empty() &&
                             options_.checkpoint_every_n_batches > 0;
  const std::string fingerprint = SearchConfigFingerprint(options_, total);
  int64_t start_epoch = 0;
  int64_t start_step = 0;
  double val_loss_sum = 0.0;
  int64_t steps = 0;
  bool resume_mid_epoch = false;
  // Restores a checkpoint (the file on --resume, the in-memory last-good
  // snapshot on rollback) and moves the cursor to it.
  const auto restore = [&](const SearchCheckpoint& checkpoint) {
    const Status status = RestoreSearchState(
        checkpoint, &supernet, &weight_optimizer, &theta_optimizer, &rng,
        &pseudo_train, &pseudo_val);
    if (!status.ok()) return status;
    if (metrics != nullptr && !checkpoint.metrics_state.empty()) {
      const Status metrics_status =
          metrics->DecodeState(checkpoint.metrics_state);
      if (!metrics_status.ok()) {
        // Telemetry only: a bad metrics block must not block the restore.
        AUTOCTS_LOG(WARNING) << "checkpoint metrics state unreadable ("
                             << metrics_status.ToString()
                             << "); metrics restart empty";
        metrics->Reset();
        RegisterSearchMetrics(metrics);
      }
    }
    start_epoch = checkpoint.epoch;
    start_step = checkpoint.step;
    val_loss_sum = checkpoint.val_loss_sum;
    steps = checkpoint.epoch_steps;
    // step > 0 means the epoch preamble (temperature + shuffles) already
    // ran before the capture; its effects were restored above.
    resume_mid_epoch = start_step > 0;
    // Mid-epoch the uninterrupted run still reports the last completed
    // epoch's average (the restored accumulator is partial); at an epoch
    // boundary the just-finished epoch's accumulator IS final.
    result.final_validation_loss =
        (start_step == 0 && steps > 0)
            ? val_loss_sum / static_cast<double>(steps)
            : checkpoint.final_validation_loss;
    return Status::Ok();
  };
  if (options_.resume && !options_.checkpoint_path.empty()) {
    bool used_prev = false;
    // Last-good generation tracking: a checkpoint that decodes cleanly but
    // holds non-finite state (it predates the write-side health gate, or
    // was produced elsewhere) must never be resumed, so numeric health is
    // part of the decoder and an unhealthy generation falls back to the
    // previous one like a corrupt one does.
    StatusOr<SearchCheckpoint> loaded = LoadFileOrPrev<SearchCheckpoint>(
        options_.checkpoint_path,
        [](std::string text) -> StatusOr<SearchCheckpoint> {
          StatusOr<SearchCheckpoint> decoded =
              DecodeSearchCheckpoint(std::move(text));
          if (!decoded.ok()) return decoded;
          const Status health = CheckpointNumericHealth(decoded.value());
          if (!health.ok()) return health;
          return decoded;
        },
        &used_prev);
    if (!loaded.ok()) {
      AUTOCTS_LOG(WARNING) << "resume requested but no usable checkpoint at "
                           << options_.checkpoint_path << " ("
                           << loaded.status().ToString()
                           << "); starting fresh";
    } else if (loaded.value().config_fingerprint != fingerprint) {
      AUTOCTS_LOG(WARNING) << "checkpoint at " << options_.checkpoint_path
                           << " was written by a differently-configured "
                              "search; starting fresh";
    } else if (const Status status = restore(loaded.value()); !status.ok()) {
      AUTOCTS_LOG(WARNING) << "checkpoint restore failed ("
                           << status.ToString() << "); starting fresh";
    } else if (options_.verbose || used_prev) {
      AUTOCTS_LOG(INFO) << "resumed search from "
                        << (used_prev ? options_.checkpoint_path + ".prev"
                                      : options_.checkpoint_path)
                        << " at epoch " << start_epoch << " step "
                        << start_step;
    }
  }

  // Snapshots every instrument into one metrics row. Deterministic columns
  // (losses, τ, entropies, counters) depend only on the trajectory;
  // wall-clock columns carry the "wall/" prefix so determinism comparisons
  // can strip them.
  const auto emit_metrics_row = [&](const char* kind, int64_t epoch,
                                    int64_t step) {
    if (metrics == nullptr) return;
    AUTOCTS_TRACE_SCOPE("search/metrics_row");
    const double tau = supernet.temperature();
    metrics->GetGauge(kMetricTau)->Set(tau);
    const ArchEntropy entropy = ComputeArchEntropy(supernet, tau);
    metrics->GetGauge(kMetricAlphaEntropy)->Set(entropy.alpha);
    metrics->GetGauge(kMetricBetaEntropy)->Set(entropy.beta);
    metrics->GetGauge(kMetricGammaEntropy)->Set(entropy.gamma);
    metrics->GetGauge(kMetricValLossEpoch)
        ->Set(steps > 0 ? val_loss_sum / static_cast<double>(steps) : 0.0);
    const double elapsed = timer.Seconds();
    metrics->GetGauge(kMetricElapsedSec)->Set(elapsed);
    const double total_steps = static_cast<double>(
        metrics->GetCounter(kMetricStepsTotal)->value());
    metrics->GetGauge(kMetricBatchesPerSec)
        ->Set(elapsed > 0.0 ? total_steps / elapsed : 0.0);
    const PoolStats pool = GetPoolStats();
    metrics->GetGauge(kMetricPoolOccupancy)
        ->Set(pool.chunks > 0 ? static_cast<double>(pool.worker_chunks) /
                                    static_cast<double>(pool.chunks)
                              : 0.0);
    UpdateBufferPoolMetrics(metrics);
    metrics->AppendRow(kind, epoch, step);
  };

  int64_t batches_since_checkpoint = 0;
  int64_t checkpoint_ordinal = 0;
  int64_t executed_steps = 0;  // healthy steps this process run (budgets)

  // Numerical-health guard state. The monitor always observes; the
  // recovery tiers only engage when options_.recovery.enabled.
  numerics::HealthMonitor monitor;
  numerics::RecoveryPolicy recovery(options_.recovery);
  SearchCheckpoint last_good;
  int64_t healthy_steps_since_snapshot = 0;

  // Snapshots the live search state. The cursor is the first batch a
  // restarted run executes: a capture after the last batch of an epoch
  // (next_step == max_steps > 0) rolls over to the next epoch's preamble.
  const auto capture = [&](int64_t epoch, int64_t next_step,
                           int64_t max_steps) {
    SearchCheckpoint checkpoint =
        CaptureSearchState(supernet, weight_optimizer, theta_optimizer, rng,
                           pseudo_train, pseudo_val);
    checkpoint.config_fingerprint = fingerprint;
    const bool roll_over = max_steps > 0 && next_step >= max_steps;
    checkpoint.epoch = roll_over ? epoch + 1 : epoch;
    checkpoint.step = roll_over ? 0 : next_step;
    checkpoint.val_loss_sum = val_loss_sum;
    checkpoint.epoch_steps = steps;
    checkpoint.final_validation_loss = result.final_validation_loss;
    checkpoint.metrics_state =
        metrics != nullptr ? metrics->EncodeState() : std::string();
    return checkpoint;
  };
  // In-memory last-good snapshot for the rollback tier.
  const auto capture_snapshot = [&](int64_t epoch, int64_t next_step,
                                    int64_t max_steps) {
    last_good = capture(epoch, next_step, max_steps);
    healthy_steps_since_snapshot = 0;
  };
  if (options_.recovery.enabled) {
    capture_snapshot(start_epoch, start_step, /*max_steps=*/0);
  }
  const auto record_io = [&](const fault::RetryOutcome& outcome) {
    if (metrics == nullptr) return;
    if (outcome.retries() > 0) {
      metrics->GetCounter(kMetricIoRetries)->Increment(outcome.retries());
    }
    if (!outcome.status.ok()) {
      metrics->GetCounter(kMetricIoFailures)->Increment();
    }
  };
  // Captures the state after batch `step` and writes it under the retry
  // policy. Write-side half of last-good generation tracking: never
  // replace a healthy on-disk generation with an unhealthy one.
  // Unreachable when the per-step checks work, but cheap insurance for the
  // scalar fields they do not cover.
  const auto write_checkpoint = [&](int64_t epoch, int64_t step,
                                    int64_t max_steps) {
    const SearchCheckpoint checkpoint = capture(epoch, step + 1, max_steps);
    const Status health = CheckpointNumericHealth(checkpoint);
    if (!health.ok()) return health;
    const fault::RetryOutcome outcome = fault::RetryCall(
        options_.io_retry, "search checkpoint " + options_.checkpoint_path,
        [&] {
          return SaveSearchCheckpoint(checkpoint, options_.checkpoint_path);
        });
    record_io(outcome);
    return outcome.status;
  };

  setup_span.reset();
  bool restart = true;
  while (restart) {
    restart = false;
  for (int64_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    const bool continuing = resume_mid_epoch && epoch == start_epoch;
    if (!continuing) {
      supernet.SetTemperature(
          options_.use_temperature ? SearchTemperature(epoch) : 1.0);
      rng.Shuffle(&pseudo_train);
      rng.Shuffle(&pseudo_val);
      val_loss_sum = 0.0;
      steps = 0;
    }
    const int64_t max_steps =
        options_.max_batches_per_epoch > 0
            ? options_.max_batches_per_epoch
            : (total / 2 + options_.batch_size - 1) / options_.batch_size;
    for (int64_t step = continuing ? start_step : 0; step < max_steps;
         ++step) {
      // One span per search batch: op spans nest beneath it, and its
      // self-time attributes the per-step glue (topo sort, health scans,
      // snapshot capture) that has no op span of its own.
      AUTOCTS_TRACE_SCOPE("search/step");
      auto take_batch = [&](const std::vector<int64_t>& pool) {
        std::vector<int64_t> batch;
        batch.reserve(options_.batch_size);
        for (int64_t k = 0; k < options_.batch_size; ++k) {
          batch.push_back(pool[(step * options_.batch_size + k) %
                               static_cast<int64_t>(pool.size())]);
        }
        return batch;
      };

      // Computes the (possibly cost-regularized) loss on a batch.
      auto batch_loss = [&](const std::vector<int64_t>& batch,
                            bool with_cost) {
        Tensor x, y;
        data.train().GetBatch(batch, &x, &y);
        Variable loss = ag::L1Loss(supernet.Forward(ag::Constant(x)),
                                   ag::Constant(y));
        if (with_cost && options_.cost_weight > 0.0) {
          // Efficiency-aware criterion (Section 6 future work).
          loss = ag::Add(loss, ag::MulScalar(
                                   ExpectedSupernetCost(
                                       supernet, supernet.temperature()),
                                   options_.cost_weight));
        }
        return loss;
      };

      // Line 3-4 of Algorithm 1: update Theta on a pseudo-validation batch.
      // (take_batch is a pure function of `step`, so the w update below
      // reuses train_batch — the same indices the original double call
      // produced.)
      const std::vector<int64_t> val_batch = take_batch(pseudo_val);
      const std::vector<int64_t> train_batch = take_batch(pseudo_train);
      numerics::Anomaly anomaly = numerics::Anomaly::kNone;
      double step_val_loss = 0.0;
      bool w_stage = false;
      // Read-only taps for the metrics gauges; populated from values the
      // step computes anyway (never recomputed, so metrics stay
      // bit-transparent).
      double theta_grad_norm = 0.0;
      double w_train_loss = 0.0;
      double w_grad_norm = 0.0;
      if (options_.bilevel_order <= 1) {
        // First-order approximation: w is treated as constant.
        Variable loss = batch_loss(val_batch, /*with_cost=*/true);
        theta_optimizer.ZeroGrad();
        weight_optimizer.ZeroGrad();
        step_val_loss = loss.value().item();
        anomaly = monitor.ObserveLoss(step_val_loss);
        if (anomaly == numerics::Anomaly::kNone) {
          loss.Backward();
          double pre_clip_norm = 0.0;
          optim::ClipGradNormChecked(supernet.ArchParameters(),
                                     kSearchClipNorm, &pre_clip_norm);
          theta_grad_norm = pre_clip_norm;
          anomaly = monitor.ObserveGradientNorm(pre_clip_norm);
          if (anomaly == numerics::Anomaly::kNone) theta_optimizer.Step();
        }
      } else {
        step_val_loss = UnrolledThetaStep(
            &supernet, &theta_optimizer,
            [&] { return batch_loss(train_batch, /*with_cost=*/false); },
            [&] { return batch_loss(val_batch, /*with_cost=*/true); },
            &monitor, &anomaly);
      }

      // Line 5-6: update w on a pseudo-training batch.
      if (anomaly == numerics::Anomaly::kNone) {
        w_stage = true;
        Tensor x, y;
        data.train().GetBatch(train_batch, &x, &y);
        Variable loss = ag::L1Loss(supernet.Forward(ag::Constant(x)),
                                         ag::Constant(y));
        weight_optimizer.ZeroGrad();
        theta_optimizer.ZeroGrad();
        w_train_loss = loss.value().item();
        anomaly = monitor.ObserveLoss(w_train_loss);
        if (anomaly == numerics::Anomaly::kNone) {
          loss.Backward();
          if (options_.fault_injection_hook) {
            options_.fault_injection_hook(epoch, step, &supernet);
          }
          double pre_clip_norm = 0.0;
          optim::ClipGradNormChecked(supernet.Parameters(), kSearchClipNorm,
                                     &pre_clip_norm);
          w_grad_norm = pre_clip_norm;
          anomaly = monitor.ObserveGradientNorm(pre_clip_norm);
          if (anomaly == numerics::Anomaly::kNone) weight_optimizer.Step();
        }
      }
      // Post-update sweep: catches an update that overflowed a parameter
      // and a weight corrupted directly (e.g. by the fault-injection hook).
      if (anomaly == numerics::Anomaly::kNone) {
        anomaly = monitor.CheckParameters(supernet.Parameters());
        if (anomaly == numerics::Anomaly::kNone) {
          anomaly = monitor.CheckParameters(supernet.ArchParameters());
        }
      }

      if (anomaly != numerics::Anomaly::kNone) {
        const std::string anomaly_context =
            "search epoch " + std::to_string(epoch) + " step " +
            std::to_string(step) + ": " + numerics::AnomalyName(anomaly);
        result.last_anomaly = anomaly_context;
        weight_optimizer.ZeroGrad();
        theta_optimizer.ZeroGrad();
        if (!options_.recovery.enabled) {
          // Re-run the failing stage under the autograd numeric trace to
          // name the first op that produced a non-finite value.
          std::vector<std::pair<std::string, Variable>> named =
              supernet.NamedParameters();
          const std::vector<std::pair<std::string, Variable>> arch_named =
              supernet.NamedArchParameters();
          named.insert(named.end(), arch_named.begin(), arch_named.end());
          const std::vector<int64_t>& attr_batch =
              w_stage ? train_batch : val_batch;
          std::function<void()> replay_hook;
          if (w_stage && options_.fault_injection_hook) {
            replay_hook = [&, epoch, step] {
              options_.fault_injection_hook(epoch, step, &supernet);
            };
          }
          const std::string attribution = numerics::AttributeDivergence(
              [&] {
                Tensor x, y;
                data.train().GetBatch(attr_batch, &x, &y);
                return ag::L1Loss(supernet.Forward(ag::Constant(x)),
                                  ag::Constant(y));
              },
              named, replay_hook);
          return Status::Internal(anomaly_context + "; " + attribution);
        }
        // Step-skip tier: dropping the poisoned update is enough while the
        // parameters themselves are still clean (an anomaly caught before
        // any optimizer step, e.g. a bad gradient). The unrolled Theta path
        // can corrupt weights before its anomaly is classified, so re-check
        // instead of trusting the anomaly kind alone.
        const bool params_poisoned =
            anomaly == numerics::Anomaly::kNonFiniteParameter ||
            monitor.CheckParameters(supernet.Parameters()) !=
                numerics::Anomaly::kNone ||
            monitor.CheckParameters(supernet.ArchParameters()) !=
                numerics::Anomaly::kNone;
        if (recovery.TrySkip(params_poisoned)) {
          ++result.skipped_steps;
          if (metrics != nullptr) {
            metrics->GetCounter(kMetricSkippedSteps)->Increment();
          }
          continue;
        }
        // Rollback tier: restore the last-good snapshot, back off both
        // learning rates, and perturb the Rng so subsequent shuffles
        // diverge from the poisoned trajectory.
        const Status budget = recovery.Rollback(anomaly_context, &monitor);
        if (!budget.ok()) return budget;
        ++result.recoveries;
        const Status restore_status = restore(last_good);
        AUTOCTS_CHECK(restore_status.ok()) << restore_status.ToString();
        weight_optimizer.SetLearningRate(kWeightLearningRate *
                                         recovery.lr_scale());
        theta_optimizer.SetLearningRate(options_.theta_learning_rate *
                                        recovery.lr_scale());
        (void)rng.Next();
        if (metrics != nullptr) {
          // The registry rolled back with the rest of the state; the outcome
          // counters are resynced from the result fields, which deliberately
          // are not rolled back (a recovery happened; the row log should
          // say so).
          metrics->GetCounter(kMetricRecoveries)->Set(result.recoveries);
          metrics->GetCounter(kMetricSkippedSteps)->Set(result.skipped_steps);
        }
        if (options_.verbose) {
          AUTOCTS_LOG(INFO) << "search recovery #" << result.recoveries
                            << ": " << anomaly_context << "; lr scale now "
                            << recovery.lr_scale() << ", restarting from epoch "
                            << start_epoch << " step " << start_step;
        }
        restart = true;
        break;
      }

      val_loss_sum += step_val_loss;
      ++steps;
      ++executed_steps;
      if (metrics != nullptr) {
        metrics->GetCounter(kMetricStepsTotal)->Increment();
        metrics->GetGauge(kMetricTrainLoss)->Set(w_train_loss);
        metrics->GetGauge(kMetricValLossStep)->Set(step_val_loss);
        metrics->GetGauge(kMetricGradNormW)->Set(w_grad_norm);
        metrics->GetGauge(kMetricGradNormTheta)->Set(theta_grad_norm);
        metrics->GetHistogram(kMetricGradNormWHist, {})->Observe(w_grad_norm);
        // Row emission precedes the snapshot and checkpoint captures below
        // so a rolled-back or resumed run replays exactly the rows an
        // uninterrupted run would have logged.
        if (options_.metrics_every_n_batches > 0 &&
            metrics->GetCounter(kMetricStepsTotal)->value() %
                    options_.metrics_every_n_batches ==
                0) {
          emit_metrics_row("step", epoch, step);
        }
        // The epoch row is emitted here — not after the step loop — so it
        // lands before an epoch-boundary checkpoint rolls the cursor; a run
        // resumed from that checkpoint then has the identical row log.
        if (step + 1 == max_steps) {
          emit_metrics_row("epoch", epoch, step);
        }
      }
      recovery.OnHealthyStep();
      if (options_.recovery.enabled &&
          ++healthy_steps_since_snapshot >=
              options_.recovery.snapshot_every_n_batches) {
        capture_snapshot(epoch, step + 1, max_steps);
      }

      if (checkpointing &&
          ++batches_since_checkpoint >= options_.checkpoint_every_n_batches) {
        batches_since_checkpoint = 0;
        AUTOCTS_TRACE_SCOPE("search/checkpoint");
        if (metrics != nullptr) {
          // Incremented before the capture so a resumed run's counter
          // already reflects the checkpoint it restarted from.
          metrics->GetCounter(kMetricCheckpoints)->Increment();
        }
        const Status status = write_checkpoint(epoch, step, max_steps);
        if (!status.ok()) {
          AUTOCTS_LOG(WARNING)
              << "checkpoint write failed: " << status.ToString();
        } else {
          if (metrics != nullptr && !options_.metrics_path.empty()) {
            record_io(obs::WriteSinksWithRetry(*metrics, options_.metrics_path,
                                               options_.io_retry));
          }
          if (options_.post_checkpoint_hook) {
            options_.post_checkpoint_hook(checkpoint_ordinal,
                                          options_.checkpoint_path);
          }
          ++checkpoint_ordinal;
        }
      }

      // Cooperative interruption, honored at the end of the step — after
      // the periodic-checkpoint block, so the graceful-shutdown cursor uses
      // the same math and a resumed run re-enters exactly where an
      // uninterrupted one would be (never re-running an epoch preamble).
      const Status interrupt =
          CheckInterrupt(options_.cancel, options_.deadline, executed_steps,
                         options_.step_budget, "search");
      if (!interrupt.ok()) {
        if (checkpointing) {
          AUTOCTS_TRACE_SCOPE("search/checkpoint");
          // Unlike the periodic block this does not advance the checkpoints
          // metric: only periodic writes count, so a run resumed from this
          // checkpoint reports the same counter an uninterrupted run does.
          const Status save = write_checkpoint(epoch, step, max_steps);
          if (!save.ok()) {
            AUTOCTS_LOG(WARNING)
                << "final checkpoint write failed: " << save.ToString();
          } else if (options_.verbose) {
            AUTOCTS_LOG(INFO) << "final checkpoint written to "
                              << options_.checkpoint_path;
          }
        }
        AUTOCTS_LOG(WARNING) << "search interrupted: " << interrupt.ToString();
        return interrupt;
      }
    }
    if (restart) break;
    result.final_validation_loss =
        steps > 0 ? val_loss_sum / static_cast<double>(steps) : 0.0;
    if (options_.verbose) {
      AUTOCTS_LOG(INFO) << "search epoch " << epoch + 1 << "/"
                        << options_.epochs << " tau "
                        << supernet.temperature() << " val loss "
                        << result.final_validation_loss;
    }
  }
  }  // while (restart)

  {
    AUTOCTS_TRACE_SCOPE("search/derive");
    result.top_genotypes =
        supernet.DeriveTopK(std::max<int64_t>(1, options_.derive_top_k));
    result.genotype = result.top_genotypes.front();
  }
  if (!options_.use_macro) {
    // Replicate the single searched block into a homogeneous sequential
    // stack (the paper's "w/o macro search" evaluation protocol).
    Genotype stacked;
    stacked.nodes_per_block = result.genotype.nodes_per_block;
    for (int64_t b = 0; b < eval_blocks; ++b) {
      stacked.blocks.push_back(result.genotype.blocks[0]);
      stacked.block_inputs.push_back(b);  // Sequential chain.
    }
    result.genotype = stacked;
    // The stacked rewrite invalidates the per-block candidate ranking;
    // the ablation protocol evaluates the single stacked architecture.
    result.top_genotypes = {result.genotype};
  }

  result.search_seconds = timer.Seconds();
  return result;
}

}  // namespace autocts::core
