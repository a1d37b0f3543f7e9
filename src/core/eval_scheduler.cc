#include "core/eval_scheduler.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/text_codec.h"
#include "common/trace.h"
#include "core/evaluator.h"

namespace autocts::core {
namespace {

constexpr char kCheckpointFormat[] = "autocts-eval-checkpoint";
constexpr char kCandidateSetFormat[] = "autocts-candidate-set";
constexpr int64_t kCandidateSetVersion = 1;

// SplitMix64 step (Vigna 2015), the same generator common/random.cc uses to
// expand seeds. Local copy: random.cc keeps it in an anonymous namespace.
uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Status/anomaly messages travel on one "key = value" line; embedded
// newlines would tear the record.
std::string SanitizeLine(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

// One completed candidate on a single line, every double as an exact
// hex-float image:
//   <index> <epochs_run> <parameter_count> <recoveries> <skipped_steps>
//   <mae> <rmse> <mape> <rrse> <corr> <final_train_loss>
//   <train_seconds_per_epoch> <inference_ms_per_window>
//   <num_horizons> [<mae> <rmse> <mape>]*
void AppendResultRecord(int64_t index, const models::EvalResult& r,
                        TextWriter* writer) {
  writer->Record("result")
      .Int(index)
      .Int(r.epochs_run)
      .Int(r.parameter_count)
      .Int(r.recoveries)
      .Int(r.skipped_steps);
  for (double value : {r.average.mae, r.average.rmse, r.average.mape, r.rrse,
                       r.corr, r.final_train_loss, r.train_seconds_per_epoch,
                       r.inference_ms_per_window}) {
    writer->Double(value);
  }
  writer->Int(r.per_horizon.size());
  for (const metrics::PointMetrics& h : r.per_horizon) {
    writer->Double(h.mae).Double(h.rmse).Double(h.mape);
  }
  writer->End();
}

Status ParseResultRecord(std::string_view text, int64_t* index,
                         models::EvalResult* result) {
  const auto fail = [text]() {
    return Status::InvalidArgument("malformed result record: " +
                                   std::string(text));
  };
  TokenCursor in(text);
  bool ok = in.Int(index) && in.Int(&result->epochs_run) &&
            in.Int(&result->parameter_count) && in.Int(&result->recoveries) &&
            in.Int(&result->skipped_steps);
  for (double* value :
       {&result->average.mae, &result->average.rmse, &result->average.mape,
        &result->rrse, &result->corr, &result->final_train_loss,
        &result->train_seconds_per_epoch, &result->inference_ms_per_window}) {
    ok = ok && in.Double(value);
  }
  int64_t horizons = 0;
  if (!ok || !in.Int(&horizons) ||
      !CountFits(horizons, in.bytes_left(), /*tokens_per_item=*/3)) {
    return fail();
  }
  result->per_horizon.resize(horizons);
  for (metrics::PointMetrics& h : result->per_horizon) {
    if (!in.Double(&h.mae) || !in.Double(&h.rmse) || !in.Double(&h.mape)) {
      return fail();
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing tokens in result record: " +
                                   std::string(text));
  }
  return Status::Ok();
}

// Failure records persist their Status code as a message prefix, so a
// resumed run reconstructs the same code (and therefore the same
// eval/deadline_exceeded count) a fresh run reported. An unprefixed message
// decodes as kInternal, which keeps pre-code checkpoints loadable.
constexpr char kDeadlinePrefix[] = "DEADLINE_EXCEEDED: ";

std::string EncodeFailureMessage(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    return kDeadlinePrefix + status.message();
  }
  return status.message();
}

Status DecodeFailureMessage(const std::string& message) {
  if (message.rfind(kDeadlinePrefix, 0) == 0) {
    return Status::DeadlineExceeded(
        message.substr(std::strlen(kDeadlinePrefix)));
  }
  return Status::Internal(message);
}

// "<index> <free text>" records (anomaly attributions, failure messages).
void AppendIndexedText(std::string_view key, int64_t index,
                       const std::string& text, TextWriter* writer) {
  writer->Record(key).Int(index).Word(SanitizeLine(text)).End();
}

Status ParseIndexedText(std::string_view record, int64_t* index,
                        std::string* text) {
  TokenCursor in(record);
  if (!in.Int(index)) {
    return Status::InvalidArgument("malformed record: " + std::string(record));
  }
  *text = StripWhitespace(in.rest());
  return Status::Ok();
}

}  // namespace

// --------------------------------------------------------------------------
// RNG stream splitting.
// --------------------------------------------------------------------------

uint64_t CandidateSeed(uint64_t base_seed, int64_t index) {
  // Injective in `index` for a fixed base seed (xor with a distinct word,
  // then the bijective SplitMix64 output function), and never a function of
  // scheduling. Candidate 0 still gets a seed different from the base, so
  // evaluation training does not replay the search's RNG stream.
  uint64_t state =
      base_seed ^ (static_cast<uint64_t>(index) * 0xd1342543de82ef95ULL);
  return SplitMix64Next(&state);
}

// --------------------------------------------------------------------------
// Candidate-set codec.
// --------------------------------------------------------------------------

std::string EncodeCandidateSet(const std::vector<Genotype>& candidates) {
  AUTOCTS_CHECK(!candidates.empty());
  TextWriter writer;
  writer.Add("format", kCandidateSetFormat);
  writer.AddInt("version", kCandidateSetVersion);
  writer.AddInt("count", static_cast<int64_t>(candidates.size()));
  for (size_t i = 0; i < candidates.size(); ++i) {
    writer.AddInt("candidate", i);
    candidates[i].AppendText(&writer);
  }
  return writer.Release();
}

StatusOr<std::vector<Genotype>> DecodeCandidateSet(std::string text) {
  StatusOr<TextReader> parsed = TextReader::Parse(std::move(text));
  if (!parsed.ok()) return parsed.status();
  const TextReader& reader = parsed.value();
  // A header (the records before the first "candidate" marker), then one
  // run of records per candidate.
  const std::vector<TextReader::Entry>& entries = reader.entries();
  std::vector<size_t> markers;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].key == "candidate") markers.push_back(i);
  }
  markers.push_back(entries.size());
  const TextReader header = reader.Slice(0, markers.front());
  const size_t found = markers.size() - 1;
  if (!header.Get("format").ok()) {
    // Bare single-genotype document (e.g. a plain `search --out` file).
    if (found > 0) {
      return Status::InvalidArgument(
          "candidate markers without a candidate-set format header");
    }
    StatusOr<Genotype> genotype = Genotype::FromReader(reader);
    if (!genotype.ok()) return genotype.status();
    return std::vector<Genotype>{std::move(genotype).value()};
  }
  const Status checked =
      CheckFormatHeader(header, kCandidateSetFormat, kCandidateSetVersion);
  if (!checked.ok()) return checked;
  const StatusOr<int64_t> count = header.GetInt("count");
  if (!count.ok()) return count.status();
  if (count.value() <= 0 || count.value() != static_cast<int64_t>(found)) {
    return Status::InvalidArgument(
        "candidate count mismatch: header says " +
        std::to_string(count.value()) + ", found " + std::to_string(found));
  }
  std::vector<Genotype> candidates;
  candidates.reserve(found);
  for (size_t i = 0; i < found; ++i) {
    TokenCursor marker(entries[markers[i]].value);
    int64_t index = 0;
    if (!marker.Int(&index) || !marker.AtEnd()) {
      return Status::InvalidArgument("malformed candidate marker: " +
                                     std::string(entries[markers[i]].value));
    }
    if (index != static_cast<int64_t>(i)) {
      return Status::InvalidArgument("candidate indices out of order");
    }
    StatusOr<Genotype> genotype =
        Genotype::FromReader(reader.Slice(markers[i] + 1, markers[i + 1]));
    if (!genotype.ok()) {
      return Status::InvalidArgument("candidate " + std::to_string(i) + ": " +
                                     genotype.status().message());
    }
    candidates.push_back(std::move(genotype).value());
  }
  return candidates;
}

Status SaveCandidateSet(const std::vector<Genotype>& candidates,
                        const std::string& path) {
  return AtomicWriteFile(path, EncodeCandidateSet(candidates),
                         /*keep_previous=*/false);
}

StatusOr<std::vector<Genotype>> LoadCandidateSet(const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return DecodeCandidateSet(std::move(text).value());
}

// --------------------------------------------------------------------------
// Metrics.
// --------------------------------------------------------------------------

void RegisterEvalMetrics(obs::MetricsRegistry* registry) {
  AUTOCTS_CHECK(registry != nullptr);
  registry->GetCounter(kEvalMetricCandidatesTotal);
  registry->GetCounter(kEvalMetricCandidatesDone);
  registry->GetCounter(kEvalMetricCandidatesFailed);
  registry->GetCounter(kEvalMetricCandidatesResumed);
  registry->GetGauge(kEvalMetricTrainLoss);
  registry->GetGauge(kEvalMetricMae);
  registry->GetGauge(kEvalMetricRmse);
  registry->GetGauge(kEvalMetricStatusOk);
  registry->GetCounter(kEvalMetricDeadlineExceeded);
  registry->GetCounter(kEvalMetricIoRetries);
  registry->GetCounter(kEvalMetricIoFailures);
  registry->GetGauge(kEvalMetricWorkers);
  registry->GetGauge(kEvalMetricQueueDepth);
  registry->GetGauge(kEvalMetricCandidateSec);
  registry->GetGauge(kEvalMetricOccupancy);
  registry->GetGauge(kEvalMetricBatchSec);
}

// --------------------------------------------------------------------------
// Eval checkpoint codec.
// --------------------------------------------------------------------------

std::string EvalConfigFingerprint(const std::vector<Genotype>& candidates,
                                  const models::PreparedData& data,
                                  int64_t hidden_dim,
                                  const models::TrainConfig& config) {
  std::string genotype_text;
  for (const Genotype& genotype : candidates) {
    genotype_text += genotype.ToText();
  }
  char genotype_crc[12];
  std::snprintf(genotype_crc, sizeof(genotype_crc), "%08x",
                Crc32(genotype_text));
  std::ostringstream out;
  out << "v" << EvalCheckpoint::kFormatVersion
      << " candidates=" << candidates.size() << "/" << genotype_crc
      << " data=" << data.num_nodes << "x" << data.in_features << "/"
      << data.target_feature << " window=" << data.window.input_length << "/"
      << data.window.output_length << "/" << data.window.horizon
      << " splits=" << data.train().NumSamples() << "/"
      << data.validation().NumSamples() << "/" << data.test().NumSamples()
      << " zero_missing=" << data.zero_is_missing
      << " hidden=" << hidden_dim << " seed=" << config.seed
      << " epochs=" << config.epochs << " batch=" << config.batch_size
      << " lr=" << FormatExactDouble(config.learning_rate)
      << " wd=" << FormatExactDouble(models::kTrainWeightDecay)
      << " clip=" << FormatExactDouble(models::kTrainClipNorm)
      << " max_batches=" << config.max_batches_per_epoch
      << " patience=" << config.early_stop_patience
      // Best-weight restore is always on; "restore_best=1" stays so
      // existing eval checkpoints still match.
      << " restore_best=1"
      << " health=" << numerics::kLossWindow << ","
      << FormatExactDouble(numerics::kLossSpikeFactor) << ","
      << numerics::kMinLossSamples << ","
      << FormatExactDouble(numerics::kMaxGradNorm)
      << " recovery=" << config.recovery.enabled << ","
      << config.recovery.max_recoveries << ","
      << config.recovery.max_consecutive_skips << ","
      << FormatExactDouble(config.recovery.lr_backoff);
  // Deliberately excluded: worker count (any value is bit-identical) and
  // observability paths (bit-transparent).
  return out.str();
}

std::string EncodeEvalCheckpoint(const EvalCheckpoint& checkpoint) {
  TextWriter writer;
  writer.Add("format", kCheckpointFormat);
  writer.AddInt("version", EvalCheckpoint::kFormatVersion);
  writer.Add("config", checkpoint.config_fingerprint);
  writer.AddInt("candidates", checkpoint.candidate_count);
  writer.AddInt("completed", static_cast<int64_t>(checkpoint.completed.size()));
  writer.AddInt("failures", static_cast<int64_t>(checkpoint.failed.size()));
  for (const auto& [index, result] : checkpoint.completed) {
    AppendResultRecord(index, result, &writer);
    if (!result.last_anomaly.empty()) {
      AppendIndexedText("anomaly", index, result.last_anomaly, &writer);
    }
  }
  for (const auto& [index, message] : checkpoint.failed) {
    AppendIndexedText("failed", index, message, &writer);
  }
  return SealText(writer.Release());
}

StatusOr<EvalCheckpoint> DecodeEvalCheckpoint(std::string text) {
  const StatusOr<TextReader> reader = OpenSealedText(
      std::move(text), kCheckpointFormat, EvalCheckpoint::kFormatVersion);
  if (!reader.ok()) return reader.status();

  EvalCheckpoint checkpoint;
  const StatusOr<std::string_view> config = reader.value().Get("config");
  if (!config.ok()) return config.status();
  checkpoint.config_fingerprint = config.value();
  const StatusOr<int64_t> count = reader.value().GetInt("candidates");
  if (!count.ok()) return count.status();
  if (count.value() <= 0) {
    return Status::InvalidArgument("non-positive candidate count");
  }
  checkpoint.candidate_count = count.value();
  const StatusOr<int64_t> completed = reader.value().GetInt("completed");
  const StatusOr<int64_t> failures = reader.value().GetInt("failures");
  if (!completed.ok()) return completed.status();
  if (!failures.ok()) return failures.status();

  const auto check_index = [&checkpoint](int64_t index) {
    return index >= 0 && index < checkpoint.candidate_count;
  };

  for (const std::string_view record : reader.value().GetAll("result")) {
    int64_t index = -1;
    models::EvalResult result;
    Status parsed = ParseResultRecord(record, &index, &result);
    if (!parsed.ok()) return parsed;
    if (!check_index(index)) {
      return Status::InvalidArgument("result index out of range: " +
                                     std::to_string(index));
    }
    if (!checkpoint.completed.empty() &&
        index <= checkpoint.completed.back().first) {
      return Status::InvalidArgument("result records not strictly ascending");
    }
    checkpoint.completed.emplace_back(index, std::move(result));
  }
  if (static_cast<int64_t>(checkpoint.completed.size()) != completed.value()) {
    return Status::InvalidArgument("completed count mismatch");
  }

  for (const std::string_view record : reader.value().GetAll("anomaly")) {
    int64_t index = -1;
    std::string message;
    Status parsed = ParseIndexedText(record, &index, &message);
    if (!parsed.ok()) return parsed;
    const auto it = std::find_if(
        checkpoint.completed.begin(), checkpoint.completed.end(),
        [index](const auto& entry) { return entry.first == index; });
    if (it == checkpoint.completed.end()) {
      return Status::InvalidArgument(
          "anomaly record without a matching result: " + std::string(record));
    }
    it->second.last_anomaly = message;
  }

  for (const std::string_view record : reader.value().GetAll("failed")) {
    int64_t index = -1;
    std::string message;
    Status parsed = ParseIndexedText(record, &index, &message);
    if (!parsed.ok()) return parsed;
    if (!check_index(index)) {
      return Status::InvalidArgument("failure index out of range: " +
                                     std::to_string(index));
    }
    if (!checkpoint.failed.empty() &&
        index <= checkpoint.failed.back().first) {
      return Status::InvalidArgument(
          "failure records not strictly ascending");
    }
    const bool also_completed = std::any_of(
        checkpoint.completed.begin(), checkpoint.completed.end(),
        [index](const auto& entry) { return entry.first == index; });
    if (also_completed) {
      return Status::InvalidArgument("candidate " + std::to_string(index) +
                                     " both completed and failed");
    }
    checkpoint.failed.emplace_back(index, std::move(message));
  }
  if (static_cast<int64_t>(checkpoint.failed.size()) != failures.value()) {
    return Status::InvalidArgument("failure count mismatch");
  }
  return checkpoint;
}

Status SaveEvalCheckpoint(const EvalCheckpoint& checkpoint,
                          const std::string& path) {
  return AtomicWriteFile(path, EncodeEvalCheckpoint(checkpoint));
}

StatusOr<EvalCheckpoint> LoadEvalCheckpoint(const std::string& path) {
  return LoadFile<EvalCheckpoint>(path, DecodeEvalCheckpoint);
}

StatusOr<EvalCheckpoint> LoadEvalCheckpointOrPrev(const std::string& path,
                                                  bool* used_prev) {
  return LoadFileOrPrev<EvalCheckpoint>(path, DecodeEvalCheckpoint,
                                        used_prev);
}

// --------------------------------------------------------------------------
// The scheduler.
// --------------------------------------------------------------------------

EvalScheduler::EvalScheduler(EvalSchedulerOptions options)
    : options_(std::move(options)) {
  AUTOCTS_CHECK_GE(options_.hidden_dim, 1);
  // Per-candidate observability belongs to the scheduler (workers must not
  // share the driver's registry or the global tracer session).
  AUTOCTS_CHECK(options_.train.metrics == nullptr)
      << "set EvalSchedulerOptions::metrics, not train.metrics";
  AUTOCTS_CHECK(options_.train.metrics_path.empty())
      << "set EvalSchedulerOptions::metrics_path, not train.metrics_path";
  AUTOCTS_CHECK(options_.train.trace_path.empty())
      << "per-candidate trace paths are not supported";
}

StatusOr<EvalBatchResult> EvalScheduler::Evaluate(
    const std::vector<Genotype>& candidates,
    const models::PreparedData& data) {
  const int64_t count = static_cast<int64_t>(candidates.size());
  if (count == 0) {
    return Status::InvalidArgument("no candidates to evaluate");
  }
  for (int64_t i = 0; i < count; ++i) {
    Status valid = candidates[i].Validate();
    if (!valid.ok()) {
      return Status::InvalidArgument("candidate " + std::to_string(i) +
                                     " invalid: " + valid.message());
    }
  }
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return options_.cancel->ToStatus("evaluation cancelled before start");
  }

  std::unique_ptr<obs::MetricsRegistry> owned_registry;
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr && !options_.metrics_path.empty()) {
    owned_registry = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry.get();
  }
  if (registry != nullptr) RegisterEvalMetrics(registry);

  const std::string fingerprint =
      EvalConfigFingerprint(candidates, data, options_.hidden_dim,
                            options_.train);

  EvalBatchResult batch;
  batch.candidates.resize(count);
  std::vector<bool> done(count, false);

  EvalCheckpoint checkpoint;
  checkpoint.config_fingerprint = fingerprint;
  checkpoint.candidate_count = count;

  // ---- Resume ----
  if (!options_.checkpoint_path.empty() &&
      (FileExists(options_.checkpoint_path) ||
       FileExists(options_.checkpoint_path + ".prev"))) {
    bool used_prev = false;
    StatusOr<EvalCheckpoint> loaded =
        LoadEvalCheckpointOrPrev(options_.checkpoint_path, &used_prev);
    if (!loaded.ok()) {
      AUTOCTS_LOG(WARNING) << "eval checkpoint at "
                           << options_.checkpoint_path << " unusable ("
                           << loaded.status().message()
                           << "); starting fresh";
    } else if (loaded.value().config_fingerprint != fingerprint ||
               loaded.value().candidate_count != count) {
      AUTOCTS_LOG(WARNING) << "eval checkpoint at "
                           << options_.checkpoint_path
                           << " fingerprints a different batch; "
                              "starting fresh";
    } else {
      checkpoint = std::move(loaded).value();
      for (const auto& [index, result] : checkpoint.completed) {
        CandidateOutcome& outcome = batch.candidates[index];
        outcome.result = result;
        outcome.resumed = true;
        done[index] = true;
        ++batch.resumed;
      }
      for (const auto& [index, message] : checkpoint.failed) {
        CandidateOutcome& outcome = batch.candidates[index];
        outcome.status = DecodeFailureMessage(message);
        outcome.resumed = true;
        done[index] = true;
        ++batch.resumed;
        ++batch.failed;
      }
      if (options_.verbose || used_prev) {
        AUTOCTS_LOG(INFO) << "resumed eval batch: " << batch.resumed << "/"
                          << count << " candidates from "
                          << options_.checkpoint_path
                          << (used_prev ? " (.prev generation)" : "");
      }
    }
  }

  std::vector<int64_t> pending;
  for (int64_t i = 0; i < count; ++i) {
    if (!done[i]) pending.push_back(i);
  }
  const int64_t workers = std::max<int64_t>(
      1, std::min<int64_t>(options_.workers,
                           static_cast<int64_t>(pending.size())));

  // ---- Driver-side metrics state ----
  obs::Counter* total_counter = nullptr;
  obs::Counter* done_counter = nullptr;
  obs::Counter* failed_counter = nullptr;
  obs::Counter* resumed_counter = nullptr;
  if (registry != nullptr) {
    total_counter = registry->GetCounter(kEvalMetricCandidatesTotal);
    done_counter = registry->GetCounter(kEvalMetricCandidatesDone);
    failed_counter = registry->GetCounter(kEvalMetricCandidatesFailed);
    resumed_counter = registry->GetCounter(kEvalMetricCandidatesResumed);
    total_counter->Set(count);
    registry->GetGauge(kEvalMetricWorkers)->Set(static_cast<double>(workers));
  }

  // Rows are appended strictly in candidate order: the cursor advances over
  // the longest done-prefix, so the deterministic columns depend only on
  // candidate order, never on completion order.
  int64_t row_cursor = 0;
  int64_t outstanding = static_cast<int64_t>(pending.size());
  const auto append_ready_rows = [&]() {
    if (registry == nullptr) return;
    while (row_cursor < count && done[row_cursor]) {
      const CandidateOutcome& outcome = batch.candidates[row_cursor];
      const bool ok = outcome.status.ok();
      done_counter->Increment();
      if (!ok) failed_counter->Increment();
      if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
        registry->GetCounter(kEvalMetricDeadlineExceeded)->Increment();
      }
      if (outcome.resumed) resumed_counter->Increment();
      registry->GetGauge(kEvalMetricTrainLoss)
          ->Set(ok ? outcome.result.final_train_loss : 0.0);
      registry->GetGauge(kEvalMetricMae)
          ->Set(ok ? outcome.result.average.mae : 0.0);
      registry->GetGauge(kEvalMetricRmse)
          ->Set(ok ? outcome.result.average.rmse : 0.0);
      registry->GetGauge(kEvalMetricStatusOk)->Set(ok ? 1.0 : 0.0);
      registry->GetGauge(kEvalMetricCandidateSec)->Set(outcome.wall_seconds);
      registry->GetGauge(kEvalMetricQueueDepth)
          ->Set(static_cast<double>(outstanding));
      registry->AppendRow("candidate", row_cursor, 0);
      ++row_cursor;
    }
  };
  append_ready_rows();  // resumed prefix

  // ---- Worker pool ----
  Stopwatch batch_watch;
  struct Completion {
    int64_t index = -1;
    Status status = Status::Ok();
    models::EvalResult result;
    double wall_seconds = 0.0;
  };
  std::mutex mutex;
  std::condition_variable completions_ready;
  std::deque<Completion> inbox;
  int64_t workers_alive = workers;  // guarded by `mutex`
  std::atomic<int64_t> next_slot{0};
  std::atomic<bool> abort{false};
  const auto cancelled = [&] {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  };

  const auto worker_main = [&]() {
    // A cancelled caller token stops new claims; running candidates see the
    // same token at their next batch boundary.
    while (!abort.load(std::memory_order_relaxed) && !cancelled()) {
      const int64_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= static_cast<int64_t>(pending.size())) break;
      const int64_t index = pending[slot];
      models::TrainConfig config = options_.train;
      config.seed = CandidateSeed(options_.train.seed, index);
      config.verbose = false;
      // The trainer checks the caller's token, this candidate's wall
      // deadline and its step budget at every batch boundary.
      config.cancel = options_.cancel;
      config.deadline =
          Deadline::AfterBudget(options_.candidate_wall_budget_seconds);
      config.step_budget = options_.candidate_step_budget;
      if (options_.candidate_setup_hook) {
        options_.candidate_setup_hook(index, &config);
      }
      Completion completion;
      completion.index = index;
      Stopwatch watch;
      {
        trace::Scope span("eval/candidate");
        StatusOr<models::EvalResult> result = EvaluateGenotypeWithStatus(
            candidates[index], data, options_.hidden_dim, config);
        if (result.ok()) {
          completion.result = std::move(result).value();
        } else {
          completion.status = result.status();
        }
      }
      completion.wall_seconds = watch.Seconds();
      if (options_.completion_hook) options_.completion_hook(index);
      {
        std::lock_guard<std::mutex> lock(mutex);
        inbox.push_back(std::move(completion));
      }
      completions_ready.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      --workers_alive;
    }
    completions_ready.notify_one();
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int64_t w = 0; w < workers; ++w) threads.emplace_back(worker_main);
  const auto join_all = [&] {
    for (std::thread& thread : threads) thread.join();
  };

  // ---- Driver loop: drain completions, persist, record ----
  double busy_seconds = 0.0;
  bool warned_save_failure = false;
  const auto record_io = [&](const fault::RetryOutcome& outcome) {
    if (registry == nullptr) return;
    if (outcome.retries() > 0) {
      registry->GetCounter(kEvalMetricIoRetries)->Increment(outcome.retries());
    }
    if (!outcome.status.ok()) {
      registry->GetCounter(kEvalMetricIoFailures)->Increment();
    }
  };
  try {
    for (;;) {
      // Workers publish every completion before they exit, so an empty
      // inbox with no worker alive means the batch is drained — whether it
      // ran out of candidates or the caller's token stopped the claims.
      Completion completion;
      {
        std::unique_lock<std::mutex> lock(mutex);
        completions_ready.wait(
            lock, [&] { return !inbox.empty() || workers_alive == 0; });
        if (inbox.empty()) break;
        completion = std::move(inbox.front());
        inbox.pop_front();
      }
      --outstanding;
      busy_seconds += completion.wall_seconds;

      if (completion.status.code() == StatusCode::kCancelled) {
        // Shutdown interrupted this candidate mid-training: record nothing.
        // done[] stays false, so a resumed run re-trains it from scratch
        // with its deterministic per-candidate seed — bit-identical to a
        // never-interrupted run.
        continue;
      }

      CandidateOutcome& outcome = batch.candidates[completion.index];
      outcome.status = completion.status;
      outcome.result = std::move(completion.result);
      outcome.wall_seconds = completion.wall_seconds;
      done[completion.index] = true;
      ++batch.evaluated;
      if (!outcome.status.ok()) ++batch.failed;
      if (options_.verbose) {
        AUTOCTS_LOG(INFO) << "eval candidate " << completion.index << "/"
                          << count << ": "
                          << (outcome.status.ok()
                                  ? "mae=" + std::to_string(
                                                 outcome.result.average.mae)
                                  : outcome.status.ToString());
      }

      // Insert into the checkpoint's index-sorted record lists. Failure
      // messages are encoded so a deadline-exceeded record round-trips its
      // status code across save/resume.
      if (outcome.status.ok()) {
        const auto at = std::upper_bound(
            checkpoint.completed.begin(), checkpoint.completed.end(),
            completion.index,
            [](int64_t index, const auto& entry) {
              return index < entry.first;
            });
        checkpoint.completed.insert(at, {completion.index, outcome.result});
      } else {
        const auto at = std::upper_bound(
            checkpoint.failed.begin(), checkpoint.failed.end(),
            completion.index,
            [](int64_t index, const auto& entry) {
              return index < entry.first;
            });
        checkpoint.failed.insert(
            at, {completion.index, EncodeFailureMessage(outcome.status)});
      }

      append_ready_rows();

      if (!options_.checkpoint_path.empty()) {
        const fault::RetryOutcome saved = fault::RetryCall(
            options_.io_retry,
            "eval checkpoint " + options_.checkpoint_path, [&] {
              return SaveEvalCheckpoint(checkpoint, options_.checkpoint_path);
            });
        record_io(saved);
        if (!saved.status.ok()) {
          if (!warned_save_failure) {
            AUTOCTS_LOG(WARNING) << "eval checkpoint write failed ("
                                 << saved.status.message()
                                 << "); continuing without persistence";
            warned_save_failure = true;
          }
        } else {
          if (registry != nullptr && !options_.metrics_path.empty()) {
            record_io(obs::WriteSinksWithRetry(
                *registry, options_.metrics_path, options_.io_retry));
          }
          if (options_.post_persist_hook) {
            options_.post_persist_hook(
                static_cast<int64_t>(checkpoint.completed.size() +
                                     checkpoint.failed.size()));
          }
        }
      }
    }
  } catch (...) {
    // A test hook simulated a crash: stop handing out work, let in-flight
    // candidates finish (training is not interruptible), and rethrow with
    // no worker thread left running.
    abort.store(true, std::memory_order_relaxed);
    join_all();
    throw;
  }
  join_all();
  batch.wall_seconds = batch_watch.Seconds();

  if (cancelled()) {
    // Every completed candidate was persisted above; the interrupted ones
    // were never recorded, so a --resume run re-trains exactly those and
    // lands on the same final checkpoint as an uninterrupted run.
    AUTOCTS_LOG(WARNING) << "eval scheduler interrupted; in-flight "
                            "candidates drained";
    return options_.cancel->ToStatus("evaluation interrupted after " +
                                     std::to_string(batch.evaluated) + "/" +
                                     std::to_string(count) + " candidates");
  }

  for (int64_t i = 0; i < count; ++i) {
    const CandidateOutcome& outcome = batch.candidates[i];
    if (!outcome.status.ok()) continue;
    if (batch.best_index < 0 ||
        outcome.result.average.mae <
            batch.candidates[batch.best_index].result.average.mae) {
      batch.best_index = i;
    }
  }

  if (registry != nullptr) {
    AUTOCTS_CHECK_EQ(row_cursor, count);
    const double capacity = static_cast<double>(workers) * batch.wall_seconds;
    registry->GetGauge(kEvalMetricOccupancy)
        ->Set(capacity > 0.0 ? busy_seconds / capacity : 0.0);
    registry->GetGauge(kEvalMetricBatchSec)->Set(batch.wall_seconds);
    registry->GetGauge(kEvalMetricQueueDepth)->Set(0.0);
    registry->AppendRow("batch", count, 0);
    if (!options_.metrics_path.empty()) {
      record_io(obs::WriteSinksWithRetry(*registry, options_.metrics_path,
                                         options_.io_retry));
    }
  }
  return batch;
}

}  // namespace autocts::core
