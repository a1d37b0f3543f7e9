// search_eval: the offline NAS pipeline a modeller waits on. Each round runs
// JointSearcher::SearchWithStatus on the synthetic PEMS08 preset with the
// bench::DefaultSearchOptions supernet and a checkpoint after every batch,
// then EvalScheduler::Evaluate on the checked-in list of four derived
// genotypes. It is the only workload with backward passes, optimizers,
// supernet mixed ops, checkpoint I/O and several trainers sharing the
// tensor pool; sockets and the request queue play no part.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/text_codec.h"
#include "common/trace.h"
#include "core/eval_scheduler.h"
#include "report.h"
#include "workloads.h"

namespace autocts::perfbench {
namespace {

// bench::MakePreset("pems08") at the quarter scale of the bench smoke runs
// (AUTOCTS_QUICK), with the workload seed: 10 nodes, 288 timestamps. The
// search cost per batch does not depend on the series length, but each
// candidate's validation and test passes do.
constexpr int64_t kNodes = 10;
constexpr int64_t kTimestamps = 1152 / 4;
// Search batches per SearchWithStatus call; a checkpoint follows each.
constexpr int64_t kSearchBatches = 2;
// Eval budget per candidate: one epoch of two batches followed by a
// validation pass (patience 1 cannot stop a one-epoch run early, so the work
// per candidate is fixed) and the test pass.
constexpr int64_t kEvalEpochs = 1;
constexpr int64_t kEvalBatches = 2;
constexpr int64_t kSetupRepeats = 101;

struct Inputs {
  models::PreparedData prepared;
  std::vector<core::Genotype> candidates;
  // Mean |target| over the observed test span: turns the best candidate's
  // MAE into a scale-free error that varies less from seed to seed.
  double test_mean_abs_target = 0.0;
};

StatusOr<Inputs> SetUp(const RunConfig& config) {
  data::TrafficFlowConfig flow;
  flow.name = "PEMS08 (synthetic)";
  flow.num_nodes = kNodes;
  flow.num_steps = kTimestamps;
  flow.seed = config.seed;
  data::WindowSpec window;
  window.input_length = 12;
  window.output_length = 12;
  const data::CtsDataset dataset = data::GenerateTrafficFlow(flow);
  Inputs inputs;
  inputs.prepared = models::PrepareData(dataset, window, 0.6, 0.2);
  double abs_sum = 0.0;
  int64_t observed = 0;
  for (int64_t t = kTimestamps * 4 / 5; t < kTimestamps; ++t) {
    for (int64_t n = 0; n < kNodes; ++n) {
      const double value =
          std::fabs(dataset.values.At({t, n, dataset.target_feature}));
      if (value == 0.0) continue;  // masked like the eval metrics
      abs_sum += value;
      ++observed;
    }
  }
  inputs.test_mean_abs_target =
      observed > 0 ? abs_sum / static_cast<double>(observed) : 0.0;
  StatusOr<std::vector<core::Genotype>> candidates =
      core::LoadCandidateSet(config.candidates_path);
  if (!candidates.ok()) return candidates.status();
  for (const core::Genotype& genotype : candidates.value()) {
    const Status valid = genotype.Validate();
    if (!valid.ok()) return valid;
  }
  inputs.candidates = std::move(candidates).value();
  return inputs;
}

core::SearchOptions SearchOptionsFor(const RunConfig& config) {
  core::SearchOptions options = bench::DefaultSearchOptions();
  options.epochs = 1;
  options.max_batches_per_epoch = kSearchBatches;
  options.seed = config.seed;
  options.derive_top_k = 4;
  options.checkpoint_path = config.work_dir + "/search.ckpt";
  options.checkpoint_every_n_batches = 1;
  return options;
}

core::EvalSchedulerOptions EvalOptionsFor(const RunConfig& config,
                                          int64_t workers) {
  core::EvalSchedulerOptions options;
  options.workers = workers;
  options.hidden_dim = bench::DefaultSearchOptions().supernet.hidden_dim;
  options.train.epochs = kEvalEpochs;
  options.train.batch_size = 32;
  options.train.max_batches_per_epoch = kEvalBatches;
  options.train.early_stop_patience = 1;
  options.train.seed = config.seed;
  return options;
}

// Windows one candidate's evaluation pushed through the model: training
// batches, the per-epoch validation pass and the test pass.
double EvalWindows(const models::EvalResult& result,
                   const models::PreparedData& prepared,
                   const models::TrainConfig& train) {
  const int64_t train_windows = prepared.train().NumSamples();
  const int64_t batches =
      std::min<int64_t>(train.max_batches_per_epoch,
                        (train_windows + train.batch_size - 1) /
                            train.batch_size);
  const int64_t per_epoch =
      std::min<int64_t>(batches * train.batch_size, train_windows) +
      prepared.validation().NumSamples();
  return static_cast<double>(result.epochs_run * per_epoch +
                             prepared.test().NumSamples());
}

std::string ExactImage(const core::EvalBatchResult& batch) {
  std::string image;
  for (const core::CandidateOutcome& outcome : batch.candidates) {
    image += FormatExactDouble(outcome.result.average.mae) + " " +
             FormatExactDouble(outcome.result.final_train_loss) + "\n";
  }
  return image;
}

}  // namespace

Measurement RunSearchEval(const RunConfig& config, bool traced) {
  const Layout& layout = config.layout;
  SetNumThreads(layout.tensor_threads);
  Measurement m;

  std::vector<double> setup_seconds;
  StatusOr<Inputs> inputs = Status::Internal("not set up");
  for (int64_t i = 0; i < kSetupRepeats; ++i) {
    Stopwatch timer;
    inputs = SetUp(config);
    setup_seconds.push_back(timer.Seconds());
    if (!inputs.ok()) {
      m.attempted = 1;
      m.Fail("setup: " + inputs.status().ToString());
      return m;
    }
  }
  const models::PreparedData& prepared = inputs.value().prepared;
  const std::vector<core::Genotype>& candidates = inputs.value().candidates;
  const double test_mean_abs_target = inputs.value().test_mean_abs_target;
  m.metrics["setup_s"] = Median(setup_seconds);

  std::vector<double> step_ms;
  std::vector<double> candidate_s;
  std::vector<double> search_rate;
  std::vector<double> eval_rate;
  std::vector<double> pipeline_rate;
  double busy_seconds = 0.0;
  double eval_worker_seconds = 0.0;
  double best_mae = 0.0;
  double checkpoint_bytes = 0.0;
  std::string first_image;

  if (traced) trace::Start();
  const LayerSnapshot before = LayerSnapshot::Take();
  Stopwatch elapsed;
  // Rounds run until the next one would end more than half a round past
  // the measuring time.
  double round_seconds = 0.0;
  for (int64_t round = 0;
       round == 0 || elapsed.Seconds() + 0.5 * round_seconds <= config.seconds;
       ++round) {
    Stopwatch round_timer;
    core::SearchOptions search_options = SearchOptionsFor(config);
    int64_t last_ns = SteadyNowNanos();
    search_options.post_checkpoint_hook = [&](int64_t, const std::string&) {
      const int64_t now = SteadyNowNanos();
      step_ms.push_back(static_cast<double>(now - last_ns) * 1e-6);
      last_ns = now;
    };
    Stopwatch search_timer;
    StatusOr<core::SearchResult> search = Status::Internal("not run");
    {
      trace::Scope span("bench/search");
      search = core::JointSearcher(search_options).SearchWithStatus(prepared);
    }
    const double search_s = search_timer.Seconds();
    ++m.attempted;
    if (!search.ok()) {
      m.Fail("search: " + search.status().ToString());
      break;
    }
    if (!std::isfinite(search.value().final_validation_loss)) {
      m.Fail("search: non-finite validation loss");
    }
    if (!search.value().genotype.Validate().ok() ||
        search.value().top_genotypes.empty()) {
      m.Fail("search: derived genotype fails Validate()");
    }
    std::error_code error;
    checkpoint_bytes = static_cast<double>(
        std::filesystem::file_size(search_options.checkpoint_path, error));
    if (error) m.Fail("search: no checkpoint written");

    const core::EvalSchedulerOptions eval_options =
        EvalOptionsFor(config, layout.eval_workers);
    Stopwatch eval_timer;
    StatusOr<core::EvalBatchResult> batch = Status::Internal("not run");
    {
      trace::Scope span("bench/eval");
      batch = core::EvalScheduler(eval_options).Evaluate(candidates, prepared);
    }
    const double eval_s = eval_timer.Seconds();
    m.attempted += static_cast<int64_t>(candidates.size());
    if (!batch.ok()) {
      m.Fail("eval: " + batch.status().ToString());
      break;
    }
    double windows = 0.0;
    for (size_t i = 0; i < batch.value().candidates.size(); ++i) {
      const core::CandidateOutcome& outcome = batch.value().candidates[i];
      const models::EvalResult& result = outcome.result;
      if (!outcome.status.ok()) {
        m.Fail("candidate " + std::to_string(i) + ": " +
               outcome.status.ToString());
        continue;
      }
      if (!std::isfinite(result.average.mae) ||
          !std::isfinite(result.average.rmse) ||
          !std::isfinite(result.final_train_loss)) {
        m.Fail("candidate " + std::to_string(i) + ": non-finite metrics");
      }
      windows += EvalWindows(result, prepared, eval_options.train);
      candidate_s.push_back(outcome.wall_seconds);
      busy_seconds += outcome.wall_seconds;
    }
    eval_worker_seconds +=
        eval_s * static_cast<double>(std::min<int64_t>(
                     layout.eval_workers,
                     static_cast<int64_t>(candidates.size())));
    if (batch.value().best_index < 0) {
      m.Fail("eval: no successful candidate");
      break;
    }
    // Evaluation is deterministic, so every round must reproduce the
    // first round's candidate metrics bit for bit.
    const std::string image = ExactImage(batch.value());
    if (round == 0) {
      first_image = image;
      best_mae = batch.value()
                     .candidates[static_cast<size_t>(batch.value().best_index)]
                     .result.average.mae;
    } else if (image != first_image) {
      m.Fail("eval: round " + std::to_string(round) +
             " differs from round 0");
    }

    // Each batch is one Theta update on a pseudo-validation batch and one
    // weight update on a pseudo-training batch.
    const double search_windows =
        static_cast<double>(kSearchBatches * 2 * search_options.batch_size);
    search_rate.push_back(search_windows / search_s);
    eval_rate.push_back(windows / eval_s);
    pipeline_rate.push_back((search_windows + windows) / (search_s + eval_s));
    round_seconds = round_timer.Seconds();
  }
  const LayerSnapshot after = LayerSnapshot::Take();
  if (traced) {
    trace::Stop();
    AddTraceMetrics(&m.metrics);
  }
  AddCounterDeltas(before, after, &m.metrics);

  const Tail step_tail = TailPercentile(step_ms);
  m.metrics["throughput_per_s"] = Median(pipeline_rate);
  m.metrics["latency_p50_ms"] = Median(step_ms);
  m.metrics["latency_p99_ms"] = step_tail.value;
  m.metrics["latency_p99_ms.count"] = static_cast<double>(step_tail.count);
  m.metrics["eval_best_mae"] = best_mae;
  m.metrics["forecast_wape"] =
      test_mean_abs_target > 0.0 ? best_mae / test_mean_abs_target : 0.0;
  m.metrics["search_windows_per_s"] = Median(search_rate);
  m.metrics["eval_windows_per_s"] = Median(eval_rate);
  m.metrics["search.checkpoint_bytes"] = checkpoint_bytes;
  m.metrics["eval.candidate_s.p50"] = Median(candidate_s);
  m.metrics["eval.candidate_s.max"] =
      candidate_s.empty() ? 0.0
                          : *std::max_element(candidate_s.begin(),
                                              candidate_s.end());
  m.metrics["eval.worker_busy_share"] =
      eval_worker_seconds > 0.0 ? busy_seconds / eval_worker_seconds : 0.0;
  m.metrics["peak_rss_mb"] = PeakRssMb();
  return m;
}

}  // namespace autocts::perfbench
