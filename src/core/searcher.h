// The joint search strategy (Section 3.4, Algorithm 1): first-order
// bi-level optimization alternating architecture-parameter (Theta) updates
// on pseudo-validation batches with weight (w) updates on pseudo-training
// batches, under exponential temperature annealing.
#ifndef AUTOCTS_CORE_SEARCHER_H_
#define AUTOCTS_CORE_SEARCHER_H_

#include <functional>
#include <string>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/metrics_registry.h"
#include "common/numerics.h"
#include "common/status.h"
#include "core/supernet.h"
#include "models/trainer.h"
#include "optim/adam.h"

namespace autocts::core {

// Optimizer settings from Section 4.1.4: Adam on the weights w (learning
// rate 1e-3, weight decay 1e-4) and on Theta (betas 0.5 / 0.999, weight
// decay 1e-3; its learning rate is SearchOptions::theta_learning_rate),
// with both gradients clipped at norm 5.
inline constexpr double kWeightLearningRate = 1e-3;
inline constexpr double kWeightDecay = 1e-4;
inline constexpr double kThetaBeta1 = 0.5;
inline constexpr double kThetaBeta2 = 0.999;
inline constexpr double kThetaWeightDecay = 1e-3;
inline constexpr double kSearchClipNorm = 5.0;

// Temperature annealing (Section 3.2.2): tau = 5.0 * 0.9^epoch, floored at
// 0.001.
inline constexpr double kTauInit = 5.0;
inline constexpr double kTauDecay = 0.9;
inline constexpr double kTauMin = 0.001;

// The temperature of 0-based search epoch `epoch`:
// max(kTauMin, kTauInit * kTauDecay^epoch).
double SearchTemperature(int64_t epoch);

// Perturbation scale of the second-order Theta step's finite-difference
// Hessian-vector product (Liu et al., 2019; see bilevel_order):
// eps = kUnrolledEpsilon / ||grad_w' L_val||.
inline constexpr double kUnrolledEpsilon = 0.01;

struct SearchOptions {
  SupernetConfig supernet;

  int64_t epochs = 4;
  int64_t batch_size = 16;
  // Cap on pseudo-train batches per epoch (0 = all); bounds bench runtime.
  int64_t max_batches_per_epoch = 0;

  // Theta's Adam learning rate (Section 4.1.4; the other optimizer
  // settings are the constants above).
  double theta_learning_rate = 3e-4;

  // Temperature annealing (kTauInit/kTauDecay/kTauMin). The "w/o
  // temperature" ablation fixes tau = 1.
  bool use_temperature = true;

  // "w/o macro search" ablation: search a single ST-block (B = 1) and
  // replicate it into a sequential stack of `supernet.macro_blocks` at
  // derivation.
  bool use_macro = true;

  // Efficiency-aware search (the paper's Section 6 future-work direction):
  // adds cost_weight * E[operator cost] (see core/cost_model.h) to the
  // architecture loss, steering the search toward cheaper operators.
  // 0 disables (the paper's default behaviour).
  double cost_weight = 0.0;

  // Bi-level optimization order. 1 = the paper's first-order approximation
  // (Section 3.4: "We employ first-order approximation to speed-up the
  // architecture search"). 2 = the full unrolled DARTS gradient
  //   grad_Theta L_val(w - xi grad_w L_train, Theta)
  // with the Hessian-vector product approximated by central finite
  // differences of grad_Theta L_train at w +- eps*v (Liu et al., 2019).
  // Roughly 3-4x the cost per Theta step.
  int64_t bilevel_order = 1;

  // Number of candidate architectures derived from the trained supernet
  // for the evaluation stage (Supernet::DeriveTopK). 1 reproduces the
  // paper's single-architecture derivation; > 1 fills
  // SearchResult::top_genotypes with up to this many ranked candidates for
  // core::EvalScheduler to train and evaluate in parallel.
  int64_t derive_top_k = 1;

  uint64_t seed = 1;
  bool verbose = false;

  // Crash-safe checkpointing (core/search_checkpoint.h). When
  // `checkpoint_path` is non-empty, every `checkpoint_every_n_batches`
  // search batches the complete mutable search state (weights, Theta, both
  // Adam states, Rng, tau, pseudo-split orders, epoch/batch cursor) is
  // written atomically to `checkpoint_path`, with the previous generation
  // kept at "<checkpoint_path>.prev". With `resume`, Search() restores the
  // newest loadable generation whose config fingerprint matches and
  // continues from its cursor; the resumed run's genotype and final
  // validation loss are bit-identical to an uninterrupted run's. A missing,
  // corrupt, or mismatched checkpoint logs a warning and starts fresh.
  std::string checkpoint_path;
  int64_t checkpoint_every_n_batches = 0;

  bool resume = false;

  // Test hook for fault injection: invoked after every successful
  // checkpoint write with the 0-based write ordinal (counted per Search()
  // call) and the checkpoint path. tests/checkpoint_test.cc throws from
  // the hook to simulate a crash at an exact kill point; library code never
  // throws itself.
  std::function<void(int64_t ordinal, const std::string& path)>
      post_checkpoint_hook;

  // Numerical-health guard layer (common/numerics.h). Every search step the
  // loss values, pre-clip gradient norms, and post-update parameters (w and
  // Theta) are checked against the numerics::k* thresholds. With recovery
  // enabled, a poisoned step is skipped when the parameters are still
  // clean, or the search rolls back to the last-good in-memory snapshot
  // (taken every recovery.snapshot_every_n_batches healthy steps) with a
  // learning-rate backoff on both optimizers and one extra Rng draw.
  // Without recovery, SearchWithStatus returns a non-OK Status carrying the
  // autograd-trace attribution.
  numerics::RecoveryOptions recovery;

  // Numeric fault-injection hook: invoked on every w update after the
  // backward pass (gradients populated) and before the gradient health
  // check, so tests can corrupt a supernet gradient or weight at an exact
  // (epoch, step) to prove detection and recovery end-to-end. Library code
  // never installs one.
  std::function<void(int64_t epoch, int64_t step, Supernet* supernet)>
      fault_injection_hook;

  // Observability (common/trace.h + core/search_metrics.h). Both layers
  // are bit-transparent: enabling them changes no genotype, loss, or
  // checkpoint trajectory bit (tests/observability_test.cc asserts this at
  // 1 and 4 threads).
  //
  // When `trace_path` is non-empty the whole search runs under the span
  // tracer inside a root "search" span; on exit the Chrome trace JSON is
  // written to `trace_path` and the per-op aggregate table to
  // "<trace_path>.ops.csv". Ignored (with the trace left untouched) when a
  // trace is already active.
  std::string trace_path;

  // When `metrics_path` is non-empty (or `metrics` is set), the search
  // records the core/search_metrics.h instrument set: a row per epoch,
  // plus a row every `metrics_every_n_batches` healthy steps (0 = epoch
  // rows only). Sinks "<metrics_path>.csv" / "<metrics_path>.jsonl" are
  // rewritten at every checkpoint and at exit. Metrics state is embedded
  // in checkpoints, so a resumed run's sinks equal an uninterrupted run's
  // up to "wall/" columns.
  std::string metrics_path;
  int64_t metrics_every_n_batches = 0;

  // Optional external registry (not owned). Lets tests and embedding code
  // read instruments/rows directly; `metrics_path` may be empty then.
  obs::MetricsRegistry* metrics = nullptr;

  // Cooperative interruption (common/cancellation.h), checked at the end of
  // every search step (after the periodic-checkpoint block, so resume
  // cursors stay on the periodic grid). On a cancelled token, an expired
  // wall `deadline`, or `step_budget` executed steps (0 = unlimited,
  // counted per process run), SearchWithStatus writes one final checkpoint
  // (when checkpointing is on) and returns kCancelled / kDeadlineExceeded.
  // A run that is never interrupted is bit-identical with or without these:
  // the checks read no search state, and the final checkpoint does not
  // advance the checkpoints metric, so a resumed run's counters match an
  // uninterrupted run's.
  const CancellationToken* cancel = nullptr;  // not owned
  Deadline deadline;                          // default: Infinite()
  int64_t step_budget = 0;

  // Retry policy for checkpoint and metrics-sink writes (common/fault.h).
  // Retries/failures are recorded in the io/ metric counters; a sink write
  // that still fails after retries degrades to a logged warning — the
  // search itself never dies of telemetry.
  fault::RetryPolicy io_retry;
};

// Preset matching the AutoSTG baseline: {1D conv, DGCN} operator set,
// micro-only search, homogeneous stacking.
SearchOptions AutoStgLiteOptions();

// The "macro only" ablation (Section 4.2.3) on top of `base`: Algorithm 1
// over HumanDesignedBlockSet() with one block per slot (micro_nodes = 2),
// whole blocks at full width (partial_denominator = 1) and an untempered
// block softmax (use_temperature = false). Only the block per slot and the
// backbone topology are searched.
SearchOptions MacroOnlyOptions(SearchOptions base);

struct SearchResult {
  Genotype genotype;
  // Ranked candidate architectures (top_genotypes[0] == genotype), size
  // min(derive_top_k, available variants); singleton when derive_top_k is
  // 1. Feed these to core::EvalScheduler for the evaluation stage.
  std::vector<Genotype> top_genotypes;
  double search_seconds = 0.0;
  int64_t supernet_parameters = 0;
  double final_validation_loss = 0.0;

  // Numerical-health outcome (see SearchOptions::recovery).
  int64_t recoveries = 0;      // snapshot rollbacks performed
  int64_t skipped_steps = 0;   // poisoned optimizer steps skipped
  std::string last_anomaly;    // "" when the search stayed healthy
};

class JointSearcher {
 public:
  explicit JointSearcher(SearchOptions options);

  // Runs Algorithm 1 on `data` (its training split is divided evenly into
  // pseudo-train and pseudo-validation, as in Section 3.4) and returns the
  // derived architecture. CHECK-fails on an unrecovered numerical anomaly;
  // callers that must survive divergence use SearchWithStatus.
  SearchResult Search(const models::PreparedData& data);

  // Like Search, but a numerical anomaly that recovery cannot (or may not)
  // handle returns a non-OK Status naming the anomaly and — when it
  // reproduces under the autograd numeric trace — the first op that
  // produced a non-finite value. Never aborts on divergence.
  StatusOr<SearchResult> SearchWithStatus(const models::PreparedData& data);

  const SearchOptions& options() const { return options_; }

 private:
  // One unrolled (second-order) Theta update: virtual SGD step on w, grad
  // of the validation loss at the unrolled weights, finite-difference
  // Hessian-vector correction, Adam step on Theta. Weights are restored to
  // their pre-call values. Returns the validation loss at the unrolled
  // weights. `monitor` observes the validation loss and the pre-clip Theta
  // gradient norm; on an anomaly (written to `anomaly`) the Theta step is
  // skipped and the weights are still restored.
  double UnrolledThetaStep(
      Supernet* supernet, optim::Adam* theta_optimizer,
      const std::function<Variable()>& train_loss_fn,
      const std::function<Variable()>& val_loss_fn,
      numerics::HealthMonitor* monitor, numerics::Anomaly* anomaly) const;

  SearchOptions options_;
};

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_SEARCHER_H_
