// autocts_cli — command-line front end for the library.
//
// Subcommands:
//   list-ops                     print every registered operator
//   generate [options]           generate a synthetic dataset, export CSV
//   search   [options]           run the joint architecture search
//   evaluate [options]           retrain a saved genotype and report metrics
//   evaluate-topk [options]      train/evaluate a ranked candidate set on a
//                                bounded worker pool (core/eval_scheduler.h)
//   export-artifact [options]    train a saved genotype and bundle the
//                                trained weights + scaler + window geometry
//                                into a serving artifact (serve/)
//   predict  [options]           one-shot forecast from an artifact; prints
//                                exact hex-float values for bit-comparison
//   serve-tcp [options]          serve an artifact over the TCP wire
//                                protocol (src/net/); runs until
//                                SIGINT/SIGTERM, then drains and exits
//   predict-remote [options]     one-shot forecast through a running
//                                serve-tcp server; prints the same exact
//                                hex-float output as `predict`, so the two
//                                are byte-comparable
//
// Common options:
//   --kind K        traffic-speed | traffic-flow | solar | electricity
//   --nodes N       number of series (default 12)
//   --steps T       number of timestamps (default 1440)
//   --seed S        dataset seed (default 1)
//   --input P --output Q --horizon H     window spec (defaults 12/12/0)
//   --hidden D      hidden width (default 16)
//   --epochs E      search or training epochs
//   --genotype F    genotype file (search output / evaluate input)
//   --cost-weight W efficiency-aware search weight (default 0 = off)
//   --out F         output file (generate: CSV; search: genotype text)
//   --checkpoint F  search only: write a crash-safe checkpoint to F
//   --checkpoint-every N   batches between checkpoints (default 1)
//   --resume 1      restore F (or F.prev) and continue; a resumed run
//                   reproduces the uninterrupted result bit-for-bit
//   --recover 1     search/evaluate: enable automatic divergence recovery
//                   (skip poisoned optimizer steps; roll back to the last
//                   good snapshot with a learning-rate backoff when the
//                   parameters themselves go non-finite)
//   --max-recoveries N     rollbacks before giving up (default 3)
//   --lr-backoff F  learning-rate multiplier per rollback (default 0.5)
//   --trace-out F   search/evaluate: write a Chrome-tracing JSON (open at
//                   chrome://tracing) to F and a per-op wall-time table to
//                   F.ops.csv; bit-transparent (results are unchanged)
//   --metrics-out F search/evaluate: write metric rows to F.csv and
//                   F.jsonl (per-epoch losses, grad norms, tau, entropies,
//                   recovery counters, throughput)
//   --metrics-every N      also emit a metrics row every N healthy batches
//                   (default 0 = per-epoch rows only)
//
// Search candidate derivation:
//   --derive-top-k K   derive K ranked candidate architectures instead of 1;
//                   with K > 1, --out becomes a candidate-set document that
//                   evaluate-topk consumes (K = 1 keeps the plain genotype
//                   format; evaluate-topk accepts either)
//
// evaluate-topk options:
//   --candidates F  candidate-set file (search --derive-top-k output, or a
//                   plain single-genotype file)
//   --eval-workers N       worker threads evaluating candidates
//                   concurrently (default 1); any value is bit-identical
//   --eval-checkpoint F    persist completed candidates to F after each
//                   finishes; a re-run with the same configuration resumes,
//                   re-evaluating only the unfinished candidates
//   --train-seed S  base training seed; candidate i trains under a private
//                   RNG stream split deterministically from (S, i)
//
// Serving options (src/serve/):
//   --artifact F    artifact file (export-artifact output; predict and
//                   serve-tcp input). Loads fall back to F.prev when F is
//                   corrupt, mirroring checkpoint loads.
//   --at T          predict/predict-remote: forecast from the window of the
//                   last `input` ticks ending at timestamp T (exclusive;
//                   default = the end of the series).
//
// Network serving options (src/net/):
//   --port P        serve-tcp: TCP port to listen on (default 7077;
//                   0 picks an ephemeral port, printed on stdout).
//                   predict-remote: the server's port
//   --bind A        serve-tcp: IPv4 bind address (default 127.0.0.1;
//                   use 0.0.0.0 to serve a network)
//   --serve-workers N      serve-tcp: server worker threads (default 2);
//                   any value returns bit-identical forecasts
//   --max-batch K   serve-tcp: micro-batch coalescing limit (default 8)
//   --queue-cap N   serve-tcp: bounded queue capacity (default 256)
//   --host A        predict-remote: server IPv4 address (default
//                   127.0.0.1)
//   --timeout S     predict-remote: per-request wall timeout in seconds
//                   (default 30; 0 waits forever)
//   --deadline S    predict-remote: server-side deadline budget carried on
//                   the wire (default 0 = none); an expired budget comes
//                   back as a DeadlineExceeded status frame
//   predict-remote reuses --io-retries for connect/transport retries.
//
// Resilience options (common/fault.h, common/cancellation.h):
//   --faults SPEC   install a deterministic fault-injection plan, e.g.
//                   "write:ENOSPC@3,rename:EIO@1" (the AUTOCTS_FAULTS env
//                   variable installs the same grammar; --faults wins)
//   --io-retries N  attempts per checkpoint/metrics write, including the
//                   first (default 3); backoff 10ms * 2^k capped at 1s
//   --deadline S    search: wall-clock budget in seconds; on expiry the
//                   search writes a final checkpoint and exits 75
//   --step-budget N search: stop (with a final checkpoint) after N search
//                   steps this process run; exits 75
//   --candidate-deadline S     evaluate-topk: per-candidate wall budget; a
//                   candidate over budget is recorded as a deterministic
//                   DEADLINE_EXCEEDED failure while the rest continue
//   --candidate-step-budget N  evaluate-topk: per-candidate train-batch
//                   budget, same failure semantics
//
// Option values must parse in full, or the CLI exits 2 ("bad value"):
//   integer options take decimal digits after an optional '-' (no '+');
//   fractional options (--cost-weight, --lr-backoff, --deadline, --timeout,
//   ...) take a decimal number ("0.125", "1e-3", "inf") or a hex-float
//   spelled exactly as the files write it ("0x1p-3": lowercase, a signed
//   exponent, no trailing fraction zero). "0x1.0p-3", "0x1p3" and
//   "0x1.8P+1" are refused.
//
// Signals and exit codes:
//   SIGINT/SIGTERM request a graceful shutdown: search and evaluate-topk
//   finish persisting, write a final checkpoint, and exit; a --resume run
//   then reproduces the uninterrupted result bit-for-bit. A second signal
//   hard-exits immediately.
//     0    success
//     1    failure (bad input, anomaly without --recover, ...)
//     2    usage error
//     42   --die-after-* crash seam fired (e2e tests)
//     75   --deadline / --step-budget exhausted (final checkpoint written)
//     130  interrupted by SIGINT (128 + 2), final checkpoint written
//     143  terminated by SIGTERM (128 + 15), final checkpoint written
//
// Crash-simulation seams (e2e tests only):
//   --die-after-checkpoints N   search: hard-exit (code 42) right after the
//                   Nth checkpoint write
//   --die-after-candidates N    evaluate-topk: hard-exit (code 42) once N
//                   candidates have been persisted to --eval-checkpoint
//   --signal-after-checkpoints N   search: raise SIGTERM after the Nth
//                   checkpoint write (exercises the graceful path)
//   --signal-after-candidates N    evaluate-topk: raise SIGTERM once N
//                   candidates have been persisted
//
// Without --recover 1, a numerical anomaly makes search/evaluate exit with
// status 1 and a message naming the anomaly and, when it reproduces under
// the autograd numeric trace, the first op that produced a non-finite
// value.
//
// Examples (one command each; indented lines continue it):
//   autocts_cli search --kind traffic-flow --nodes 10 --steps 1200
//       --epochs 2 --out genotype.txt
//   autocts_cli evaluate --kind traffic-flow --nodes 10 --steps 1200
//       --genotype genotype.txt --epochs 4
//   autocts_cli export-artifact --kind traffic-flow --nodes 10 --steps 1200
//       --genotype genotype.txt --epochs 4 --out model.artifact
//   autocts_cli predict --kind traffic-flow --nodes 10 --steps 1200
//       --artifact model.artifact
//   autocts_cli serve-tcp --artifact model.artifact --serve-workers 4
//   autocts_cli predict-remote --kind traffic-flow --nodes 10 --steps 1200
//       --port 7077
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/signal_handler.h"
#include "common/text_codec.h"
#include "core/cost_model.h"
#include "core/eval_scheduler.h"
#include "core/evaluator.h"
#include "core/searcher.h"
#include "data/csv.h"
#include "data/synthetic/generators.h"
#include "models/trainer.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "ops/op_registry.h"
#include "serve/inference_session.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace autocts;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // A value that does not parse as a whole is a usage error (exit 2).
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = options.find(key);
    int64_t value = fallback;
    if (it != options.end() && !ParseExactInt(it->second, &value)) {
      BadValue(key, it->second);
    }
    return value;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = options.find(key);
    double value = fallback;
    if (it != options.end() && !ParseExactDouble(it->second, &value)) {
      BadValue(key, it->second);
    }
    return value;
  }

  [[noreturn]] static void BadValue(const std::string& key,
                                    const std::string& value) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", key.c_str(),
                 value.c_str());
    std::exit(2);
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: autocts_cli "
               "<list-ops|generate|search|evaluate|evaluate-topk|"
               "export-artifact|predict|serve-tcp|"
               "predict-remote> "
               "[--key value ...]\n(see the header of tools/autocts_cli.cc "
               "for the full option list)\n");
  return 2;
}

// Process-wide shutdown token; SIGINT/SIGTERM cancel it (see main()).
CancellationToken& ShutdownToken() {
  static CancellationToken token;
  return token;
}

// Maps a terminal command failure to the documented exit code: 130/143 for
// a signal-driven cancel, 75 for an exhausted deadline or step budget, 1
// for everything else.
int FailureExitCode(const Status& status) {
  if (status.code() == StatusCode::kCancelled) {
    const int code = ShutdownExitCode();
    return code != 0 ? code : 130;
  }
  if (status.code() == StatusCode::kDeadlineExceeded) return 75;
  return 1;
}

fault::RetryPolicy RetryPolicyFromArgs(const Args& args) {
  fault::RetryPolicy policy;
  policy.max_attempts = args.GetInt("io-retries", policy.max_attempts);
  return policy;
}

data::CtsDataset MakeDataset(const Args& args) {
  const std::string kind = args.Get("kind", "traffic-speed");
  const int64_t nodes = args.GetInt("nodes", 12);
  const int64_t steps = args.GetInt("steps", 1440);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  if (kind == "traffic-speed") {
    data::TrafficSpeedConfig config;
    config.num_nodes = nodes;
    config.num_steps = steps;
    config.seed = seed;
    return data::GenerateTrafficSpeed(config);
  }
  if (kind == "traffic-flow") {
    data::TrafficFlowConfig config;
    config.num_nodes = nodes;
    config.num_steps = steps;
    config.seed = seed;
    return data::GenerateTrafficFlow(config);
  }
  if (kind == "solar") {
    data::SolarConfig config;
    config.num_nodes = nodes;
    config.num_steps = steps;
    config.seed = seed;
    return data::GenerateSolar(config);
  }
  if (kind == "electricity") {
    data::ElectricityConfig config;
    config.num_nodes = nodes;
    config.num_steps = steps;
    config.seed = seed;
    return data::GenerateElectricity(config);
  }
  std::fprintf(stderr, "unknown --kind %s\n", kind.c_str());
  std::exit(2);
}

models::PreparedData PrepareFromArgs(const Args& args,
                                     const data::CtsDataset& dataset) {
  data::WindowSpec window;
  window.input_length = args.GetInt("input", 12);
  window.output_length = args.GetInt("output", 12);
  window.horizon = args.GetInt("horizon", 0);
  if (window.horizon > 0) window.output_length = 1;
  return models::PrepareData(dataset, window,
                             args.GetDouble("train-fraction", 0.7),
                             args.GetDouble("val-fraction", 0.1));
}

// The recovery flags of search and of the training commands.
numerics::RecoveryOptions RecoveryFromArgs(const Args& args) {
  numerics::RecoveryOptions recovery;
  recovery.enabled = args.GetInt("recover", 0) != 0;
  recovery.max_recoveries = args.GetInt("max-recoveries", 3);
  recovery.lr_backoff = args.GetDouble("lr-backoff", 0.5);
  return recovery;
}

// The training flags evaluate, evaluate-topk and export-artifact share.
// evaluate-topk's scheduler replaces the logging and interruption fields
// per candidate.
models::TrainConfig TrainConfigFromArgs(const Args& args) {
  models::TrainConfig config;
  config.epochs = args.GetInt("epochs", 4);
  config.batch_size = args.GetInt("batch", 32);
  config.max_batches_per_epoch = args.GetInt("max-batches", 10);
  config.early_stop_patience = args.GetInt("patience", 0);
  config.recovery = RecoveryFromArgs(args);
  config.verbose = true;
  config.cancel = &ShutdownToken();
  config.deadline = Deadline::AfterBudget(args.GetDouble("deadline", 0.0));
  config.step_budget = args.GetInt("step-budget", 0);
  return config;
}

// Loads a genotype text file (shared by evaluate and export-artifact).
StatusOr<core::Genotype> LoadGenotypeFile(const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return core::Genotype::FromText(std::move(text).value());
}

// Printed by search and evaluate when the run recovered from an anomaly.
void PrintRecovery(int64_t recoveries, int64_t skipped_steps,
                   const std::string& last_anomaly) {
  if (recoveries == 0 && skipped_steps == 0) return;
  std::printf("numerical recovery: %lld rollbacks, %lld skipped steps "
              "(last anomaly: %s)\n",
              static_cast<long long>(recoveries),
              static_cast<long long>(skipped_steps), last_anomaly.c_str());
}

void PrintTestMetrics(const models::EvalResult& result) {
  std::printf(
      "test: MAE %.4f  RMSE %.4f  MAPE %.2f%%  RRSE %.4f  CORR %.4f\n",
      result.average.mae, result.average.rmse, result.average.mape * 100.0,
      result.rrse, result.corr);
}

int ListOps() {
  const std::vector<std::string> names = ops::OpRegistry::Global().Names();
  size_t width = 0;
  for (const std::string& name : names) width = std::max(width, name.size());
  for (const std::string& name : names) {
    std::printf("%-*s cost=%.2f%s\n", static_cast<int>(width), name.c_str(),
                core::OperatorCost(name),
                core::IsParametricOp(name) ? "" : " (non-parametric)");
  }
  return 0;
}

int Generate(const Args& args) {
  const data::CtsDataset dataset = MakeDataset(args);
  const std::string out = args.Get("out", "dataset.csv");
  // Export the target feature as a [T, N] matrix.
  Tensor matrix({dataset.num_steps(), dataset.num_nodes()});
  for (int64_t t = 0; t < dataset.num_steps(); ++t) {
    for (int64_t n = 0; n < dataset.num_nodes(); ++n) {
      matrix.At({t, n}) =
          dataset.values.At({t, n, dataset.target_feature});
    }
  }
  const Status status = data::SaveMatrixCsv(out, matrix);
  std::printf("%s: %s (%lld x %lld)\n", out.c_str(),
              status.ToString().c_str(),
              static_cast<long long>(dataset.num_steps()),
              static_cast<long long>(dataset.num_nodes()));
  return status.ok() ? 0 : 1;
}

int Search(const Args& args) {
  const data::CtsDataset dataset = MakeDataset(args);
  const models::PreparedData prepared = PrepareFromArgs(args, dataset);
  core::SearchOptions options;
  options.supernet.micro_nodes = args.GetInt("micro-nodes", 5);
  options.supernet.macro_blocks = args.GetInt("macro-blocks", 4);
  options.supernet.hidden_dim = args.GetInt("hidden", 16);
  options.epochs = args.GetInt("epochs", 2);
  options.batch_size = args.GetInt("batch", 32);
  options.max_batches_per_epoch = args.GetInt("max-batches", 5);
  options.cost_weight = args.GetDouble("cost-weight", 0.0);
  options.bilevel_order = args.GetInt("bilevel", 1);
  options.seed = static_cast<uint64_t>(args.GetInt("search-seed", 3));
  options.checkpoint_path = args.Get("checkpoint", "");
  options.checkpoint_every_n_batches = args.GetInt("checkpoint-every", 1);
  options.resume = args.GetInt("resume", 0) != 0;
  options.derive_top_k = args.GetInt("derive-top-k", 1);
  const int64_t die_after_checkpoints =
      args.GetInt("die-after-checkpoints", 0);
  const int64_t signal_after_checkpoints =
      args.GetInt("signal-after-checkpoints", 0);
  if (die_after_checkpoints > 0) {
    options.post_checkpoint_hook = [die_after_checkpoints](
                                       int64_t ordinal, const std::string&) {
      // Simulated crash for the e2e pipeline test: the checkpoint is already
      // fsynced, so exiting without cleanup is exactly a kill -9.
      if (ordinal + 1 >= die_after_checkpoints) std::_Exit(42);
    };
  } else if (signal_after_checkpoints > 0) {
    options.post_checkpoint_hook = [signal_after_checkpoints](
                                       int64_t ordinal, const std::string&) {
      // Graceful-shutdown seam for the e2e pipeline test: deliver a real
      // SIGTERM to this process, exercising the handler -> token -> final
      // checkpoint -> exit 143 path exactly as an external kill would.
      if (ordinal + 1 >= signal_after_checkpoints) std::raise(SIGTERM);
    };
  }
  options.cancel = &ShutdownToken();
  options.deadline = Deadline::AfterBudget(args.GetDouble("deadline", 0.0));
  options.step_budget = args.GetInt("step-budget", 0);
  options.io_retry = RetryPolicyFromArgs(args);
  options.recovery = RecoveryFromArgs(args);
  options.trace_path = args.Get("trace-out", "");
  options.metrics_path = args.Get("metrics-out", "");
  options.metrics_every_n_batches = args.GetInt("metrics-every", 0);
  options.verbose = true;
  const StatusOr<core::SearchResult> search_result =
      core::JointSearcher(options).SearchWithStatus(prepared);
  if (!search_result.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 search_result.status().ToString().c_str());
    return FailureExitCode(search_result.status());
  }
  const core::SearchResult& result = search_result.value();
  std::printf("%s", result.genotype.ToPrettyString().c_str());
  std::printf("search took %.1fs; relative architecture cost %.2f\n",
              result.search_seconds,
              core::GenotypeCost(result.genotype));
  PrintRecovery(result.recoveries, result.skipped_steps,
                result.last_anomaly);
  const std::string out = args.Get("out", "genotype.txt");
  if (result.top_genotypes.size() > 1) {
    const Status saved = core::SaveCandidateSet(result.top_genotypes, out);
    if (!saved.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("candidate set (%lld genotypes) written to %s\n",
                static_cast<long long>(result.top_genotypes.size()),
                out.c_str());
    return 0;
  }
  std::ofstream stream(out);
  stream << result.genotype.ToText();
  std::printf("genotype written to %s\n", out.c_str());
  return stream ? 0 : 1;
}

int Evaluate(const Args& args) {
  const std::string path = args.Get("genotype", "genotype.txt");
  const StatusOr<core::Genotype> genotype = LoadGenotypeFile(path);
  if (!genotype.ok()) {
    std::fprintf(stderr, "bad genotype %s: %s\n", path.c_str(),
                 genotype.status().ToString().c_str());
    return 1;
  }
  const data::CtsDataset dataset = MakeDataset(args);
  const models::PreparedData prepared = PrepareFromArgs(args, dataset);
  models::TrainConfig config = TrainConfigFromArgs(args);
  config.trace_path = args.Get("trace-out", "");
  config.metrics_path = args.Get("metrics-out", "");
  config.metrics_every_n_batches = args.GetInt("metrics-every", 0);
  const StatusOr<models::EvalResult> eval_result =
      core::EvaluateGenotypeWithStatus(genotype.value(), prepared,
                                       args.GetInt("hidden", 16), config);
  if (!eval_result.ok()) {
    std::fprintf(stderr, "evaluate failed: %s\n",
                 eval_result.status().ToString().c_str());
    return FailureExitCode(eval_result.status());
  }
  const models::EvalResult& result = eval_result.value();
  PrintRecovery(result.recoveries, result.skipped_steps, result.last_anomaly);
  PrintTestMetrics(result);
  std::printf("epochs run %lld, params %lld, %.2f s/epoch, %.3f ms/window\n",
              static_cast<long long>(result.epochs_run),
              static_cast<long long>(result.parameter_count),
              result.train_seconds_per_epoch,
              result.inference_ms_per_window);
  return 0;
}

int EvaluateTopK(const Args& args) {
  const std::string path = args.Get("candidates", "candidates.txt");
  const StatusOr<std::vector<core::Genotype>> candidates =
      core::LoadCandidateSet(path);
  if (!candidates.ok()) {
    std::fprintf(stderr, "cannot load candidate set %s: %s\n", path.c_str(),
                 candidates.status().ToString().c_str());
    return 1;
  }
  const data::CtsDataset dataset = MakeDataset(args);
  const models::PreparedData prepared = PrepareFromArgs(args, dataset);

  core::EvalSchedulerOptions options;
  options.workers = args.GetInt("eval-workers", 1);
  options.hidden_dim = args.GetInt("hidden", 16);
  options.checkpoint_path = args.Get("eval-checkpoint", "");
  options.metrics_path = args.Get("metrics-out", "");
  options.verbose = args.GetInt("quiet", 0) == 0;
  options.train = TrainConfigFromArgs(args);
  options.train.seed = static_cast<uint64_t>(args.GetInt("train-seed", 7));
  const int64_t die_after_candidates =
      args.GetInt("die-after-candidates", 0);
  const int64_t signal_after_candidates =
      args.GetInt("signal-after-candidates", 0);
  if (die_after_candidates > 0) {
    options.post_persist_hook = [die_after_candidates](int64_t persisted) {
      // Simulated crash for the e2e pipeline test (see Search()).
      if (persisted >= die_after_candidates) std::_Exit(42);
    };
  } else if (signal_after_candidates > 0) {
    options.post_persist_hook = [signal_after_candidates](int64_t persisted) {
      // Graceful-shutdown seam (see Search()): real SIGTERM, full handler
      // path, documented exit 143.
      if (persisted >= signal_after_candidates) std::raise(SIGTERM);
    };
  }
  options.cancel = &ShutdownToken();
  options.candidate_wall_budget_seconds =
      args.GetDouble("candidate-deadline", 0.0);
  options.candidate_step_budget = args.GetInt("candidate-step-budget", 0);
  options.io_retry = RetryPolicyFromArgs(args);

  const StatusOr<core::EvalBatchResult> evaluated =
      core::EvalScheduler(std::move(options))
          .Evaluate(candidates.value(), prepared);
  if (!evaluated.ok()) {
    std::fprintf(stderr, "evaluate-topk failed: %s\n",
                 evaluated.status().ToString().c_str());
    return FailureExitCode(evaluated.status());
  }
  const core::EvalBatchResult& batch = evaluated.value();
  for (size_t i = 0; i < batch.candidates.size(); ++i) {
    const core::CandidateOutcome& outcome = batch.candidates[i];
    if (outcome.status.ok()) {
      // Exact hex-float images alongside the readable values: the e2e
      // pipeline test compares these tokens bit-for-bit across worker
      // counts and resume boundaries.
      std::printf(
          "candidate %lld%s: MAE %.4f RMSE %.4f  exact mae=%s rmse=%s "
          "loss=%s\n",
          static_cast<long long>(i), outcome.resumed ? " (resumed)" : "",
          outcome.result.average.mae, outcome.result.average.rmse,
          FormatExactDouble(outcome.result.average.mae).c_str(),
          FormatExactDouble(outcome.result.average.rmse).c_str(),
          FormatExactDouble(outcome.result.final_train_loss).c_str());
    } else {
      std::printf("candidate %lld%s: FAILED %s\n",
                  static_cast<long long>(i),
                  outcome.resumed ? " (resumed)" : "",
                  outcome.status.ToString().c_str());
    }
  }
  std::printf("evaluated %lld, resumed %lld, failed %lld of %lld "
              "candidates in %.1fs\n",
              static_cast<long long>(batch.evaluated),
              static_cast<long long>(batch.resumed),
              static_cast<long long>(batch.failed),
              static_cast<long long>(batch.candidates.size()),
              batch.wall_seconds);
  if (batch.best_index < 0) {
    std::fprintf(stderr, "every candidate failed\n");
    return 1;
  }
  std::printf("best candidate %lld\n",
              static_cast<long long>(batch.best_index));
  return 0;
}

int ExportArtifact(const Args& args) {
  const std::string path = args.Get("genotype", "genotype.txt");
  const StatusOr<core::Genotype> genotype = LoadGenotypeFile(path);
  if (!genotype.ok()) {
    std::fprintf(stderr, "bad genotype %s: %s\n", path.c_str(),
                 genotype.status().ToString().c_str());
    return 1;
  }
  const data::CtsDataset dataset = MakeDataset(args);
  const models::PreparedData prepared = PrepareFromArgs(args, dataset);
  models::TrainConfig config = TrainConfigFromArgs(args);
  config.seed = static_cast<uint64_t>(args.GetInt("train-seed", 7));
  const int64_t hidden = args.GetInt("hidden", 16);
  StatusOr<core::TrainedGenotype> trained =
      core::TrainGenotypeWithStatus(genotype.value(), prepared, hidden,
                                    config);
  if (!trained.ok()) {
    std::fprintf(stderr, "export-artifact training failed: %s\n",
                 trained.status().ToString().c_str());
    return FailureExitCode(trained.status());
  }
  const serve::ModelArtifact artifact = serve::MakeModelArtifact(
      *trained.value().model, prepared, hidden, config.seed);
  const std::string out = args.Get("out", "model.artifact");
  const fault::RetryPolicy retry = RetryPolicyFromArgs(args);
  const Status saved =
      fault::RetryCall(retry, "artifact write",
                       [&] { return serve::SaveModelArtifact(artifact, out); })
          .status;
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  const models::EvalResult& result = trained.value().eval;
  PrintTestMetrics(result);
  std::printf("artifact written to %s (%lld bytes, %lld params)\n",
              out.c_str(),
              static_cast<long long>(
                  serve::EncodeModelArtifact(artifact).size()),
              static_cast<long long>(result.parameter_count));
  return 0;
}

// Prints a [Q, N] forecast twice per step: rounded for reading, and as
// exact hex-float images that tests and operators compare bit-for-bit
// across machines, batch sizes, worker counts and the wire (the wire
// carries IEEE-754 bit patterns), so `predict` and `predict-remote` output
// diff clean.
void PrintForecast(int64_t at, const Tensor& forecast) {
  const int64_t output_length = forecast.dim(0);
  const int64_t num_nodes = forecast.dim(1);
  std::printf("forecast from t=%lld (%lld steps, %lld nodes)\n",
              static_cast<long long>(at),
              static_cast<long long>(output_length),
              static_cast<long long>(num_nodes));
  for (int64_t q = 0; q < output_length; ++q) {
    std::printf("step %lld:", static_cast<long long>(q + 1));
    for (int64_t n = 0; n < num_nodes; ++n) {
      std::printf(" %.4f", forecast.At({q, n}));
    }
    std::printf("\nexact q%lld =", static_cast<long long>(q + 1));
    for (int64_t n = 0; n < num_nodes; ++n) {
      std::printf(" %s", FormatExactDouble(forecast.At({q, n})).c_str());
    }
    std::printf("\n");
  }
}

// The raw window [input_length, N, F] of the `input_length` steps ending at
// `at` (exclusive). `predict` and `predict-remote` both forecast from it, so
// their outputs are byte-comparable.
Tensor WindowEndingAt(const data::CtsDataset& dataset, int64_t input_length,
                      int64_t at) {
  Tensor window(
      {input_length, dataset.num_nodes(), dataset.num_features()});
  for (int64_t p = 0; p < input_length; ++p) {
    for (int64_t n = 0; n < dataset.num_nodes(); ++n) {
      for (int64_t f = 0; f < dataset.num_features(); ++f) {
        window.At({p, n, f}) =
            dataset.values.At({at - input_length + p, n, f});
      }
    }
  }
  return window;
}

int PredictOnce(const Args& args) {
  const std::string path = args.Get("artifact", "model.artifact");
  bool used_prev = false;
  const StatusOr<serve::ModelArtifact> artifact =
      serve::LoadModelArtifactOrPrev(path, &used_prev);
  if (!artifact.ok()) {
    std::fprintf(stderr, "cannot load artifact %s: %s\n", path.c_str(),
                 artifact.status().ToString().c_str());
    return 1;
  }
  if (used_prev) {
    std::printf("loaded previous generation %s.prev\n", path.c_str());
  }
  StatusOr<std::unique_ptr<serve::InferenceSession>> session =
      serve::InferenceSession::Create(artifact.value());
  if (!session.ok()) {
    std::fprintf(stderr, "cannot build session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  const serve::ArtifactMeta& meta = artifact.value().meta;
  const data::CtsDataset dataset = MakeDataset(args);
  if (dataset.num_nodes() != meta.num_nodes ||
      dataset.num_features() != meta.in_features) {
    std::fprintf(stderr,
                 "dataset geometry (%lld nodes, %lld features) does not "
                 "match the artifact (%lld, %lld)\n",
                 static_cast<long long>(dataset.num_nodes()),
                 static_cast<long long>(dataset.num_features()),
                 static_cast<long long>(meta.num_nodes),
                 static_cast<long long>(meta.in_features));
    return 1;
  }
  const int64_t at = args.GetInt("at", dataset.num_steps());
  if (at < meta.input_length || at > dataset.num_steps()) {
    std::fprintf(stderr, "--at %lld out of range [%lld, %lld]\n",
                 static_cast<long long>(at),
                 static_cast<long long>(meta.input_length),
                 static_cast<long long>(dataset.num_steps()));
    return 1;
  }
  const StatusOr<Tensor> forecast = session.value()->Predict(
      WindowEndingAt(dataset, meta.input_length, at));
  if (!forecast.ok()) {
    std::fprintf(stderr, "predict failed: %s\n",
                 forecast.status().ToString().c_str());
    return 1;
  }
  PrintForecast(at, forecast.value());
  return 0;
}

int ServeTcp(const Args& args) {
  const std::string path = args.Get("artifact", "model.artifact");
  const StatusOr<serve::ModelArtifact> artifact =
      serve::LoadModelArtifactOrPrev(path);
  if (!artifact.ok()) {
    std::fprintf(stderr, "cannot load artifact %s: %s\n", path.c_str(),
                 artifact.status().ToString().c_str());
    return 1;
  }
  net::TcpServeOptions options;
  options.serve.workers = args.GetInt("serve-workers", 2);
  options.serve.max_batch = args.GetInt("max-batch", 8);
  options.serve.queue_capacity = args.GetInt("queue-cap", 256);
  options.serve.cancel = &ShutdownToken();
  options.port = static_cast<int>(args.GetInt("port", 7077));
  options.bind_address = args.Get("bind", "127.0.0.1");
  net::TcpForecastServer server(artifact.value(), options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve-tcp start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  // Machine-readable: tests and scripts parse this line for the (possibly
  // ephemeral) port before connecting.
  std::printf("listening on %s:%d\n", options.bind_address.c_str(),
              server.port());
  std::printf("serving %lld workers, max batch %lld; stop with SIGINT or "
              "SIGTERM\n",
              static_cast<long long>(options.serve.workers),
              static_cast<long long>(options.serve.max_batch));
  std::fflush(stdout);
  while (!ShutdownToken().cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Graceful drain: in-flight requests get their responses before the
  // sockets and workers wind down.
  server.Stop();
  const net::TcpForecastServer::Stats stats = server.stats();
  std::printf("serve-tcp drained: %lld connections, %lld requests, "
              "%lld responses, %lld error frames, %lld protocol errors\n",
              static_cast<long long>(stats.connections_accepted),
              static_cast<long long>(stats.requests_decoded),
              static_cast<long long>(stats.responses_sent),
              static_cast<long long>(stats.error_frames_sent),
              static_cast<long long>(stats.protocol_errors));
  return ShutdownExitCode();
}

int PredictRemote(const Args& args) {
  net::ForecastClientOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<int>(args.GetInt("port", 7077));
  options.retry = RetryPolicyFromArgs(args);
  options.request_timeout_seconds = args.GetDouble("timeout", 30.0);

  // The last --input ticks ending at --at (exclusive; default = the end of
  // the series), the window `predict` forecasts from.
  const data::CtsDataset dataset = MakeDataset(args);
  const int64_t input_length = args.GetInt("input", 12);
  const int64_t at = args.GetInt("at", dataset.num_steps());
  if (input_length < 1 || at < input_length || at > dataset.num_steps()) {
    std::fprintf(stderr, "--at %lld out of range [%lld, %lld]\n",
                 static_cast<long long>(at),
                 static_cast<long long>(input_length),
                 static_cast<long long>(dataset.num_steps()));
    return 1;
  }

  net::ForecastClient client(options);
  const Status connected = client.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "cannot connect to %s:%d: %s\n",
                 options.host.c_str(), options.port,
                 connected.ToString().c_str());
    return 1;
  }
  const StatusOr<Tensor> forecast =
      client.Predict(WindowEndingAt(dataset, input_length, at),
                     args.GetDouble("deadline", 0.0));
  if (!forecast.ok()) {
    std::fprintf(stderr, "predict-remote failed: %s\n",
                 forecast.status().ToString().c_str());
    return FailureExitCode(forecast.status());
  }
  PrintForecast(at, forecast.value());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args.options[argv[i] + 2] = argv[i + 1];
  }

  // Fault-injection plan: --faults wins over the AUTOCTS_FAULTS env var.
  const std::string faults = args.Get("faults", "");
  if (!faults.empty()) {
    StatusOr<fault::FaultPlan> plan = fault::ParseFaultPlan(faults);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults spec: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    fault::InstallFaultPlan(std::move(plan).value());
  } else {
    const Status env = fault::InstallFaultPlanFromEnv();
    if (!env.ok()) {
      std::fprintf(stderr, "bad AUTOCTS_FAULTS: %s\n",
                   env.ToString().c_str());
      return 2;
    }
  }

  // Long-running commands get graceful SIGINT/SIGTERM shutdown.
  if (args.command == "search" || args.command == "evaluate" ||
      args.command == "evaluate-topk" || args.command == "export-artifact" ||
      args.command == "serve-tcp") {
    InstallShutdownHandlers(&ShutdownToken());
  }

  if (args.command == "list-ops") return ListOps();
  if (args.command == "generate") return Generate(args);
  if (args.command == "search") return Search(args);
  if (args.command == "evaluate") return Evaluate(args);
  if (args.command == "evaluate-topk") return EvaluateTopK(args);
  if (args.command == "export-artifact") return ExportArtifact(args);
  if (args.command == "predict") return PredictOnce(args);
  if (args.command == "serve-tcp") return ServeTcp(args);
  if (args.command == "predict-remote") return PredictRemote(args);
  return Usage();
}
