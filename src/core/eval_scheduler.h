// Parallel top-K candidate evaluation (the final AutoCTS stage, made
// concurrent): an EvalScheduler takes the K genotypes derived from the
// trained supernet (Supernet::DeriveTopK) and trains/evaluates them on a
// bounded pool of dedicated worker threads — its own std::threads, not the
// tensor ParallelFor pool, so candidate-level and kernel-level parallelism
// compose without deadlock (concurrent kernel calls serialize on the tensor
// pool's job mutex and stay bit-identical by its fixed-chunk contract).
//
// Guarantees:
//
//  * Determinism. Candidate i trains with its own RNG stream split from the
//    batch seed as a pure function of (seed, i) (CandidateSeed), reads the
//    shared PreparedData strictly read-only, and owns every other piece of
//    mutable state. Results are returned in candidate order regardless of
//    completion order, so a batch evaluated with 4 workers is bit-identical
//    to the same batch evaluated with 1 — tests/eval_scheduler_test.cc
//    enforces this, including under artificially shuffled completion.
//
//  * Fault isolation. Each candidate runs through
//    models::TrainAndEvaluateWithStatus (the PR 3 status/recovery path): a
//    diverging candidate yields a per-candidate non-OK Status carrying the
//    anomaly attribution and never aborts the batch or disturbs its
//    neighbours.
//
//  * Crash-safe resume. With a checkpoint path set, every completed
//    candidate's EvalResult (or terminal failure) is persisted through the
//    PR 2 codec conventions — exact hex-float doubles, CRC32 trailer,
//    atomic write-tmp-then-rename with a retained ".prev" generation — and
//    a re-run over the same configuration skips the persisted candidates
//    and evaluates only the remainder, reproducing the uninterrupted
//    batch's results bit-for-bit.
//
//  * Observability. Worker threads record per-candidate "eval/candidate"
//    spans in the PR 4 tracer; the driver thread owns the (non-thread-safe)
//    metrics registry and records the "eval/" instrument set: queue depth
//    and worker occupancy (wall/ columns, excluded from determinism
//    comparisons), plus deterministic per-candidate loss/metric columns.
#ifndef AUTOCTS_CORE_EVAL_SCHEDULER_H_
#define AUTOCTS_CORE_EVAL_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "core/genotype.h"
#include "models/trainer.h"

namespace autocts::core {

// --------------------------------------------------------------------------
// Deterministic per-candidate RNG stream splitting.
// --------------------------------------------------------------------------

// Seed of candidate `index`'s private RNG stream: a SplitMix64 mix of the
// batch seed and the candidate index. A pure function of its arguments —
// never of worker count, scheduling, or completion order — so candidate i
// trains identically no matter which worker picks it up or when.
uint64_t CandidateSeed(uint64_t base_seed, int64_t index);

// --------------------------------------------------------------------------
// Candidate-set text codec (search output -> evaluate-topk input).
// --------------------------------------------------------------------------

// Serializes ranked candidates as a versioned multi-genotype document:
//
//   format = autocts-candidate-set
//   version = 1
//   count = <K>
//   candidate = <index>
//   <genotype text (core/genotype.h)>        (x K)
//
// Decode also accepts a bare single-genotype document (no format header)
// as a 1-candidate set, so `evaluate-topk --candidates` works on plain
// `search --out` files.
std::string EncodeCandidateSet(const std::vector<Genotype>& candidates);
StatusOr<std::vector<Genotype>> DecodeCandidateSet(std::string text);
Status SaveCandidateSet(const std::vector<Genotype>& candidates,
                        const std::string& path);
StatusOr<std::vector<Genotype>> LoadCandidateSet(const std::string& path);

// --------------------------------------------------------------------------
// Eval metrics (instrument names follow the "wall/" determinism convention
// of common/metrics_registry.h).
// --------------------------------------------------------------------------

inline constexpr char kEvalMetricCandidatesTotal[] = "eval/candidates_total";
inline constexpr char kEvalMetricCandidatesDone[] = "eval/candidates_done";
inline constexpr char kEvalMetricCandidatesFailed[] =
    "eval/candidates_failed";
inline constexpr char kEvalMetricCandidatesResumed[] =
    "eval/candidates_resumed";
inline constexpr char kEvalMetricTrainLoss[] = "eval/train_loss";
inline constexpr char kEvalMetricMae[] = "eval/mae";
inline constexpr char kEvalMetricRmse[] = "eval/rmse";
inline constexpr char kEvalMetricStatusOk[] = "eval/status_ok";
// Candidates terminated by their wall budget or training step budget. A
// deterministic function of the configured budgets when the step budget is
// the trigger, so it stays un-prefixed; failure
// records round-trip through checkpoints with their DEADLINE_EXCEEDED code
// intact, keeping resumed counts equal to fresh ones.
inline constexpr char kEvalMetricDeadlineExceeded[] =
    "eval/deadline_exceeded";
// Resilient-I/O counters (common/fault.h): checkpoint/sink write retries
// and final failures. Zero on healthy runs, a pure function of the
// installed fault plan otherwise.
inline constexpr char kEvalMetricIoRetries[] = "io/retries";
inline constexpr char kEvalMetricIoFailures[] = "io/failures";
// Scheduling/wall-clock derived (and configuration that varies with the
// schedule): legitimately different between otherwise identical runs.
inline constexpr char kEvalMetricWorkers[] = "wall/eval_workers";
inline constexpr char kEvalMetricQueueDepth[] = "wall/eval_queue_depth";
inline constexpr char kEvalMetricCandidateSec[] = "wall/eval_candidate_sec";
inline constexpr char kEvalMetricOccupancy[] = "wall/eval_worker_occupancy";
inline constexpr char kEvalMetricBatchSec[] = "wall/eval_batch_sec";

// Registers the eval instrument set (idempotent; fixes sink column order).
void RegisterEvalMetrics(obs::MetricsRegistry* registry);

// --------------------------------------------------------------------------
// Crash-safe eval checkpoint.
// --------------------------------------------------------------------------

// Persisted progress of one evaluation batch. Failed candidates are
// recorded too: divergence is deterministic under this codebase's
// bit-identity contract, so re-evaluating a candidate that already failed
// would burn the same compute to reach the same anomaly.
struct EvalCheckpoint {
  static constexpr int64_t kFormatVersion = 1;

  // Fingerprint of (candidates, data extents, hidden_dim, TrainConfig);
  // resume refuses to restore progress into a different batch.
  std::string config_fingerprint;
  int64_t candidate_count = 0;

  // Completed evaluations keyed by candidate index, ascending.
  std::vector<std::pair<int64_t, models::EvalResult>> completed;
  // Terminal per-candidate failures: (index, status message), ascending.
  std::vector<std::pair<int64_t, std::string>> failed;
};

// Deterministic fingerprint of everything that shapes a batch's results.
std::string EvalConfigFingerprint(const std::vector<Genotype>& candidates,
                                  const models::PreparedData& data,
                                  int64_t hidden_dim,
                                  const models::TrainConfig& config);

// Sealed text codec (common/file_io.h) with exact hex-float doubles. Decode
// returns InvalidArgument on any CRC mismatch, truncation, or malformed
// record.
std::string EncodeEvalCheckpoint(const EvalCheckpoint& checkpoint);
StatusOr<EvalCheckpoint> DecodeEvalCheckpoint(std::string text);

// File wrappers (AtomicWriteFile protocol, ".prev" generation retained).
Status SaveEvalCheckpoint(const EvalCheckpoint& checkpoint,
                          const std::string& path);
StatusOr<EvalCheckpoint> LoadEvalCheckpoint(const std::string& path);
// Loads `path`, falling back to "<path>.prev" when the primary generation
// is missing or corrupt. `used_prev` (optional) reports which one loaded.
StatusOr<EvalCheckpoint> LoadEvalCheckpointOrPrev(const std::string& path,
                                                  bool* used_prev);

// --------------------------------------------------------------------------
// The scheduler.
// --------------------------------------------------------------------------

struct EvalSchedulerOptions {
  // Worker threads evaluating candidates concurrently; clamped to
  // [1, candidate count]. Any value yields bit-identical results.
  int64_t workers = 1;

  int64_t hidden_dim = 16;

  // Base training configuration. Candidate i trains under a copy with
  // seed = CandidateSeed(train.seed, i). Per-candidate observability is
  // owned by the scheduler: trace_path/metrics_path/metrics on this config
  // must stay unset (workers must not share a registry or the global
  // tracer session).
  models::TrainConfig train;

  // When non-empty: load completed progress from this path (skipping those
  // candidates), and persist every newly completed candidate.
  std::string checkpoint_path;

  // Driver-thread metrics (optional external registry, not owned;
  // metrics_path may be empty when `metrics` is set). Per-candidate rows
  // (kind "candidate", epoch = candidate index) are appended in candidate
  // order, one batch row (kind "batch") at the end; sinks are rewritten at
  // every checkpoint persist and at exit.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_path;

  bool verbose = false;

  // Cooperative interruption (common/cancellation.h). Every candidate's
  // trainer polls this token at each batch boundary. When it is cancelled
  // (signal-driven shutdown), the workers stop claiming candidates, the
  // running ones stop at their next batch, and Evaluate returns
  // kCancelled — progress up to that point is already persisted per
  // completion, so a resumed run re-evaluates only the interrupted
  // candidates, bit-identically.
  const CancellationToken* cancel = nullptr;  // not owned

  // Per-candidate budgets, checked by the trainer at every batch boundary
  // (the wall budget against the FakeClock-compatible monotonic clock). A
  // candidate that exceeds either is recorded as a deterministic
  // DEADLINE_EXCEEDED failure — persisted like any other terminal failure,
  // while the remaining candidates continue undisturbed. The step budget
  // (total training batches) is the deterministic, machine-independent
  // knob; the wall budget is the real-deployment guard. 0 disables either.
  double candidate_wall_budget_seconds = 0.0;
  int64_t candidate_step_budget = 0;

  // Retry policy for checkpoint and metrics-sink writes (common/fault.h);
  // retries/failures land in the io/ counters, and a sink that still fails
  // degrades to a logged warning.
  fault::RetryPolicy io_retry;

  // ---- test seams (library code never installs these) ----

  // Tweak candidate `index`'s TrainConfig before it runs, e.g. to install
  // a fault_injection_hook on one candidate. Called on the worker thread,
  // before any training; must not touch shared mutable state.
  std::function<void(int64_t index, models::TrainConfig* config)>
      candidate_setup_hook;

  // Invoked on the worker thread after candidate `index`'s evaluation
  // finishes, before the result is published to the driver. Tests use it
  // to stall completions into an adversarial order.
  std::function<void(int64_t index)> completion_hook;

  // Invoked on the driver thread after each checkpoint persist, with the
  // number of candidates persisted so far (resumed ones included). Tests
  // throw from it to simulate a mid-batch crash at an exact kill point.
  std::function<void(int64_t persisted_count)> post_persist_hook;
};

// Outcome of one candidate, in candidate order.
struct CandidateOutcome {
  Status status = Status::Ok();
  models::EvalResult result;  // meaningful iff status.ok()
  bool resumed = false;       // restored from the checkpoint, not re-run
  // Wall-clock seconds this run spent evaluating the candidate (0 when
  // resumed). Nondeterministic, like every wall measurement.
  double wall_seconds = 0.0;
};

struct EvalBatchResult {
  std::vector<CandidateOutcome> candidates;  // index == candidate index
  int64_t evaluated = 0;  // freshly evaluated by this run
  int64_t resumed = 0;    // restored from the checkpoint
  int64_t failed = 0;     // non-OK outcomes (resumed failures included)
  // Best successful candidate by average MAE (ties to the lower index);
  // -1 when every candidate failed.
  int64_t best_index = -1;
  double wall_seconds = 0.0;
};

class EvalScheduler {
 public:
  explicit EvalScheduler(EvalSchedulerOptions options);

  // Evaluates every candidate. Per-candidate divergence never fails the
  // batch (it lands in that candidate's CandidateOutcome::status); the
  // batch itself fails only on an empty candidate list or an invalid
  // genotype. A checkpoint that cannot be written is logged and skipped; a
  // checkpoint that cannot be read (or fingerprints a different batch)
  // logs a warning and starts fresh.
  StatusOr<EvalBatchResult> Evaluate(const std::vector<Genotype>& candidates,
                                     const models::PreparedData& data);

  const EvalSchedulerOptions& options() const { return options_; }

 private:
  EvalSchedulerOptions options_;
};

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_EVAL_SCHEDULER_H_
