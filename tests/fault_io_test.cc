// Injected-I/O-failure sweeps for the resilience layer (common/fault.h +
// common/file_io.h) and its checkpoint/metrics call sites:
//   * fault-plan grammar — parse/format round-trips and rejection of
//     malformed specs;
//   * deterministic retry — exact backoff sequences read off a FakeClock,
//     retry-then-succeed, non-retryable short-circuit, budget exhaustion;
//   * AtomicWriteFile under ENOSPC / EIO / SHORT / rename failure at both
//     the rotate and publish steps — the target and ".prev" generations are
//     never torn, the temp file is cleaned up, and a failed publish rolls
//     the rotation back;
//   * search and eval checkpointing and metrics sinks under a fault plan —
//     a transient failure is retried per policy (io/retries counters), a
//     persistent one degrades to a warning without killing the run, and
//     every surviving checkpoint stays CRC/codec-valid.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/stopwatch.h"
#include "core/eval_scheduler.h"
#include "core/search_checkpoint.h"
#include "core/search_metrics.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/trainer.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

using core::EvalScheduler;
using core::EvalSchedulerOptions;
using core::Genotype;
using core::JointSearcher;
using core::LoadSearchCheckpoint;
using core::LoadSearchCheckpointOrPrev;
using core::SearchOptions;
using core::SearchResult;
using models::PreparedData;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".prev").c_str());
}

std::string ReadAll(const std::string& path) {
  StatusOr<std::string> content = ReadFileToString(path);
  AUTOCTS_CHECK(content.ok());
  return content.value();
}

// ---------------------------------------------------------------------------
// Fault-plan grammar.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParseFormatRoundTrip) {
  const std::string spec = "write:ENOSPC@3,rename:EIO@1x2,write:SHORT@5";
  StatusOr<fault::FaultPlan> plan = fault::ParseFaultPlan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().faults.size(), 3u);
  EXPECT_EQ(plan.value().faults[0].op, "write");
  EXPECT_EQ(plan.value().faults[0].error_number, ENOSPC);
  EXPECT_EQ(plan.value().faults[0].first_call, 3);
  EXPECT_EQ(plan.value().faults[1].count, 2);
  EXPECT_TRUE(plan.value().faults[2].short_write);
  EXPECT_EQ(fault::FormatFaultPlan(plan.value()), spec);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  StatusOr<fault::FaultPlan> plan = fault::ParseFaultPlan("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().empty());
}

TEST(FaultPlan, MalformedSpecsAreRejected) {
  const char* bad[] = {
      "fsync:EIO@1",      // unknown op
      "write:EWHAT@1",    // unknown errno name
      "write:EIO@0",      // ordinals are 1-based
      "write:EIO@x",      // non-numeric ordinal
      "write:EIO",        // missing ordinal
      "write@1",          // missing kind
      "read:SHORT@1",     // SHORT only applies to writes
      "write:EIO@1x0",    // zero repeat
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(fault::ParseFaultPlan(spec).ok()) << spec;
  }
}

TEST(FaultPlan, ConsumeFiresOnScheduledOrdinalsOnly) {
  fault::ScopedFaultPlan scoped("write:EIO@2x2");
  EXPECT_FALSE(fault::Consume("write").has_value());  // call 1
  auto second = fault::Consume("write");              // call 2
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->error_number, EIO);
  EXPECT_TRUE(fault::Consume("write").has_value());   // call 3
  EXPECT_FALSE(fault::Consume("write").has_value());  // call 4
  // Other ops have independent counters.
  EXPECT_FALSE(fault::Consume("rename").has_value());
}

TEST(FaultPlan, NoPlanNeverFires) {
  fault::ClearFaultPlan();
  EXPECT_FALSE(fault::FaultPlanActive());
  EXPECT_FALSE(fault::Consume("write").has_value());
}

// ---------------------------------------------------------------------------
// Retry policy.
// ---------------------------------------------------------------------------

TEST(Retry, BackoffSequenceIsDeterministic) {
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(1), 0.0);
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(2), 0.01);
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(3), 0.02);
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(4), 0.04);
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(8), 0.64);
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(9), 1.0);  // capped
  EXPECT_DOUBLE_EQ(fault::BackoffSeconds(10), 1.0);
}

// Under a FakeClock the backoff advances virtual time, so the gaps between
// attempts are the exact backoff sequence and the test never sleeps.
TEST(Retry, RetriesThenSucceedsAndSleepsTheExactBackoffs) {
  fault::ResetIoStats();
  const ScopedFakeClock clock;
  std::vector<int64_t> attempt_nanos;
  const fault::RetryOutcome outcome = fault::RetryCall(
      fault::RetryPolicy{.max_attempts = 5}, "test op", [&]() -> Status {
        attempt_nanos.push_back(SteadyNowNanos());
        if (attempt_nanos.size() < 3) return Status::Unavailable("transient");
        return Status::Ok();
      });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.retries(), 2);
  ASSERT_EQ(attempt_nanos.size(), 3u);
  EXPECT_EQ(attempt_nanos[1] - attempt_nanos[0], 10'000'000);
  EXPECT_EQ(attempt_nanos[2] - attempt_nanos[1], 20'000'000);
  EXPECT_GE(fault::GetIoStats().retries, 2);
}

TEST(Retry, NonRetryableStatusShortCircuits) {
  const ScopedFakeClock clock;
  int calls = 0;
  const fault::RetryOutcome outcome = fault::RetryCall(
      fault::RetryPolicy(), "test op", [&]() -> Status {
        ++calls;
        return Status::InvalidArgument("malformed input");
      });
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(SteadyNowNanos(), 0);  // never backed off
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
}

TEST(Retry, ExhaustedBudgetReportsLastStatus) {
  fault::ResetIoStats();
  const int64_t failures_before = fault::GetIoStats().failures;
  const ScopedFakeClock clock;
  int calls = 0;
  const fault::RetryOutcome outcome =
      fault::RetryCall(fault::RetryPolicy(), "test op",
                       [&]() -> Status {
                         ++calls;
                         return Status::Unavailable("still down");
                       });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_GT(fault::GetIoStats().failures, failures_before);
}

TEST(Retry, RetryableCodes) {
  EXPECT_TRUE(fault::IsRetryableIoError(Status::Unavailable("x")));
  EXPECT_TRUE(fault::IsRetryableIoError(Status::Internal("x")));
  EXPECT_FALSE(fault::IsRetryableIoError(Status::NotFound("x")));
  EXPECT_FALSE(fault::IsRetryableIoError(Status::InvalidArgument("x")));
  EXPECT_FALSE(fault::IsRetryableIoError(Status::Cancelled("x")));
  EXPECT_FALSE(fault::IsRetryableIoError(Status::Ok()));
}

// ---------------------------------------------------------------------------
// AtomicWriteFile under injected failures.
// ---------------------------------------------------------------------------

TEST(AtomicWrite, EnospcLeavesBothGenerationsUntouched) {
  const std::string path = TempPath("aw_enospc.bin");
  RemoveGenerations(path);
  ASSERT_TRUE(AtomicWriteFile(path, "gen A").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "gen B").ok());

  fault::ScopedFaultPlan scoped("write:ENOSPC@1");
  const Status status = AtomicWriteFile(path, "gen C");
  ASSERT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(status.message(), "No space left")) << status.message();
  EXPECT_TRUE(Contains(status.message(), "(injected)")) << status.message();
  EXPECT_EQ(ReadAll(path), "gen B");
  EXPECT_EQ(ReadAll(path + ".prev"), "gen A");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  RemoveGenerations(path);
}

TEST(AtomicWrite, ShortWritePersistsNoTornTarget) {
  const std::string path = TempPath("aw_short.bin");
  RemoveGenerations(path);
  ASSERT_TRUE(AtomicWriteFile(path, "old generation").ok());

  fault::ScopedFaultPlan scoped("write:SHORT@1");
  const Status status = AtomicWriteFile(path, "new generation content");
  ASSERT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(status.message(), "short write")) << status.message();
  // The truncated prefix only ever existed at ".tmp" and was cleaned up;
  // the published generation is whole.
  EXPECT_EQ(ReadAll(path), "old generation");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  RemoveGenerations(path);
}

TEST(AtomicWrite, RotateRenameFailureKeepsTarget) {
  const std::string path = TempPath("aw_rotate.bin");
  RemoveGenerations(path);
  ASSERT_TRUE(AtomicWriteFile(path, "current").ok());

  fault::ScopedFaultPlan scoped("rename:EIO@1");
  const Status status = AtomicWriteFile(path, "next");
  ASSERT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(status.message(), "rotate")) << status.message();
  EXPECT_EQ(ReadAll(path), "current");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  RemoveGenerations(path);
}

TEST(AtomicWrite, PublishRenameFailureRollsRotationBack) {
  const std::string path = TempPath("aw_publish.bin");
  RemoveGenerations(path);
  ASSERT_TRUE(AtomicWriteFile(path, "gen A").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "gen B").ok());

  // The first rename (rotate to .prev) succeeds; the second (publish)
  // fails. Without rollback, `path` would vanish.
  fault::ScopedFaultPlan scoped("rename:EIO@2");
  const Status status = AtomicWriteFile(path, "gen C");
  ASSERT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(status.message(), "publish")) << status.message();
  ASSERT_TRUE(FileExists(path));
  EXPECT_EQ(ReadAll(path), "gen B");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  RemoveGenerations(path);
}

TEST(AtomicWrite, UnlinkFailureOnlyWarns) {
  const std::string path = TempPath("aw_unlink.bin");
  RemoveGenerations(path);
  {
    // The write fails AND the temp-file cleanup fails: still just a status,
    // and the leftover ".tmp" does not poison the next attempt.
    fault::ScopedFaultPlan scoped("write:EIO@1,unlink:EIO@1");
    EXPECT_FALSE(AtomicWriteFile(path, "doomed").ok());
  }
  ASSERT_TRUE(AtomicWriteFile(path, "recovered").ok());
  EXPECT_EQ(ReadAll(path), "recovered");
  RemoveGenerations(path);
}

TEST(ReadFile, InjectedOpenAndReadFaultsAreUnavailable) {
  const std::string path = TempPath("rf_faults.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "content", false).ok());
  {
    fault::ScopedFaultPlan scoped("open:EACCES@1");
    const Status status = ReadFileToString(path).status();
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(Contains(status.message(), "(injected)")) << status.message();
  }
  {
    fault::ScopedFaultPlan scoped("read:EIO@1");
    EXPECT_EQ(ReadFileToString(path).status().code(),
              StatusCode::kUnavailable);
  }
  // A genuinely missing file is NotFound, not Unavailable: retrying cannot
  // conjure it.
  EXPECT_EQ(ReadFileToString(TempPath("rf_missing.txt")).status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint call sites under a fault plan.
// ---------------------------------------------------------------------------

PreparedData TinyData(uint64_t seed = 31) {
  data::TrafficSpeedConfig config;
  config.num_nodes = 4;
  config.num_steps = 300;
  config.seed = seed;
  data::WindowSpec window;
  window.input_length = 6;
  window.output_length = 3;
  return models::PrepareData(data::GenerateTrafficSpeed(config), window, 0.7,
                             0.1);
}

SearchOptions TinySearchOptions() {
  SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.supernet.partial_denominator = 4;
  options.epochs = 1;
  options.batch_size = 8;
  options.max_batches_per_epoch = 4;
  return options;
}

TEST(CheckpointFaults, SearchCheckpointRetriesThenSucceeds) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("cf_search.bin");
  RemoveGenerations(path);

  SearchOptions options = TinySearchOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_n_batches = 2;
  obs::MetricsRegistry registry;
  options.metrics = &registry;

  // The very first checkpoint write fails once with ENOSPC, is retried per
  // policy, and the run finishes bit-identical to a no-fault run.
  SearchResult faulted;
  {
    fault::ScopedFaultPlan scoped("write:ENOSPC@1");
    faulted = JointSearcher(options).Search(data);
  }
  ASSERT_TRUE(FileExists(path));
  EXPECT_TRUE(LoadSearchCheckpoint(path).ok());
  EXPECT_GE(registry.GetCounter(core::kMetricIoRetries)->value(), 1);
  EXPECT_EQ(registry.GetCounter(core::kMetricIoFailures)->value(), 0);

  RemoveGenerations(path);
  SearchOptions clean_options = TinySearchOptions();
  const SearchResult clean = JointSearcher(clean_options).Search(data);
  EXPECT_EQ(faulted.genotype.ToText(), clean.genotype.ToText());
  EXPECT_EQ(faulted.final_validation_loss, clean.final_validation_loss);
  RemoveGenerations(path);
}

TEST(CheckpointFaults, SearchDegradesWhenEveryWriteFails) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("cf_search_dead.bin");
  RemoveGenerations(path);

  SearchOptions options = TinySearchOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_n_batches = 2;
  obs::MetricsRegistry registry;
  options.metrics = &registry;

  SearchResult faulted;
  {
    fault::ScopedFaultPlan scoped("write:ENOSPC@1x1000");
    faulted = JointSearcher(options).Search(data);
  }
  // The disk never took a byte, but the search itself survived.
  EXPECT_FALSE(FileExists(path));
  EXPECT_GE(registry.GetCounter(core::kMetricIoFailures)->value(), 1);

  SearchOptions clean_options = TinySearchOptions();
  const SearchResult clean = JointSearcher(clean_options).Search(data);
  EXPECT_EQ(faulted.genotype.ToText(), clean.genotype.ToText());
  RemoveGenerations(path);
}

TEST(CheckpointFaults, PrevGenerationFallbackAfterCorruption) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("cf_prev.bin");
  RemoveGenerations(path);

  SearchOptions options = TinySearchOptions();
  options.checkpoint_path = path;
  options.checkpoint_every_n_batches = 2;
  JointSearcher(options).Search(data);
  ASSERT_TRUE(FileExists(path));
  ASSERT_TRUE(FileExists(path + ".prev"));

  // Corrupt the newest generation; the loader falls back to ".prev".
  ASSERT_TRUE(AtomicWriteFile(path, "garbage", /*keep_previous=*/false).ok());
  bool used_prev = false;
  EXPECT_TRUE(LoadSearchCheckpointOrPrev(path, &used_prev).ok());
  EXPECT_TRUE(used_prev);
  RemoveGenerations(path);
}

EvalSchedulerOptions TinyEvalOptions() {
  EvalSchedulerOptions options;
  options.workers = 1;
  options.hidden_dim = 8;
  options.verbose = false;
  options.train.epochs = 1;
  options.train.batch_size = 8;
  options.train.max_batches_per_epoch = 2;
  options.train.seed = 7;
  return options;
}

TEST(CheckpointFaults, EvalCheckpointRetriesThenSucceeds) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("cf_eval.bin");
  RemoveGenerations(path);

  EvalSchedulerOptions options = TinyEvalOptions();
  options.checkpoint_path = path;
  obs::MetricsRegistry registry;
  options.metrics = &registry;

  const std::vector<Genotype> candidates = fixtures::MakeCandidateGenotypes(2);
  fault::ScopedFaultPlan scoped("write:ENOSPC@1");
  StatusOr<core::EvalBatchResult> result =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().evaluated, 2);
  ASSERT_TRUE(FileExists(path));
  EXPECT_TRUE(core::LoadEvalCheckpoint(path).ok());
  EXPECT_GE(registry.GetCounter(core::kEvalMetricIoRetries)->value(), 1);
  EXPECT_EQ(registry.GetCounter(core::kEvalMetricIoFailures)->value(), 0);
  RemoveGenerations(path);
}

TEST(CheckpointFaults, EvalDegradesWhenEveryWriteFails) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("cf_eval_dead.bin");
  RemoveGenerations(path);

  EvalSchedulerOptions options = TinyEvalOptions();
  options.checkpoint_path = path;
  obs::MetricsRegistry registry;
  options.metrics = &registry;

  const std::vector<Genotype> candidates = fixtures::MakeCandidateGenotypes(2);
  fault::ScopedFaultPlan scoped("write:ENOSPC@1x1000");
  StatusOr<core::EvalBatchResult> result =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().evaluated, 2);
  EXPECT_EQ(result.value().failed, 0);
  EXPECT_FALSE(FileExists(path));
  EXPECT_GE(registry.GetCounter(core::kEvalMetricIoFailures)->value(), 1);
  RemoveGenerations(path);
}

TEST(CheckpointFaults, EvalMetricsSinksRetryWithoutCheckpoint) {
  // With no checkpoint path, the end-of-batch flush is the only sink write;
  // a transient fault on it is retried like every other sink write.
  const PreparedData data = TinyData();
  const std::string base = TempPath("cf_eval_metrics");
  for (const char* suffix : {".csv", ".jsonl"}) {
    RemoveGenerations(base + suffix);
  }

  EvalSchedulerOptions options = TinyEvalOptions();
  options.metrics_path = base;
  const std::vector<Genotype> candidates = fixtures::MakeCandidateGenotypes(1);
  fault::ScopedFaultPlan scoped("write:ENOSPC@1");
  StatusOr<core::EvalBatchResult> result =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(FileExists(base + ".csv"));
  EXPECT_TRUE(FileExists(base + ".jsonl"));
  for (const char* suffix : {".csv", ".jsonl"}) {
    RemoveGenerations(base + suffix);
  }
}

}  // namespace
}  // namespace autocts
