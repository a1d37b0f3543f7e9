// Cooperative-cancellation / deadline / graceful-shutdown suite
// (common/cancellation.h, common/signal_handler.h) and its integration into
// the searcher, trainer, and eval scheduler:
//   * token semantics — first reason wins, reset, status mapping;
//   * deadlines on the FakeClock — exact virtual-time expiry, AfterBudget;
//   * CheckInterrupt priority — cancel over deadline over step budget;
//   * signal handlers — a raised SIGTERM cancels the installed token and
//     ShutdownExitCode reports 128+sig;
//   * a cancelled search writes a final checkpoint whose resume reproduces
//     the uninterrupted run bit-for-bit, at 1 and 4 threads;
//   * a step-budgeted candidate fails alone with DEADLINE_EXCEEDED while
//     the other candidates' metrics stay bit-identical to a clean run, and
//     the coded failure survives a checkpoint round-trip.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/signal_handler.h"
#include "common/stopwatch.h"
#include "core/eval_scheduler.h"
#include "core/search_checkpoint.h"
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
using core::SearchOptions;
using core::SearchResult;
using models::PreparedData;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".prev").c_str());
}

// ---------------------------------------------------------------------------
// Token semantics.
// ---------------------------------------------------------------------------

TEST(CancellationToken, FirstReasonWins) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.Cancel(CancelReason::kDeadline);
  token.Cancel(CancelReason::kShutdown);  // already cancelled: no effect
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancellationToken, ResetRearms) {
  CancellationToken token;
  token.Cancel(CancelReason::kShutdown);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  token.Cancel(CancelReason::kDeadline);
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancellationToken, ToStatusMapsReasonToCode) {
  CancellationToken token;
  token.Cancel(CancelReason::kShutdown);
  EXPECT_EQ(token.ToStatus("ctx").code(), StatusCode::kCancelled);
  token.Reset();
  token.Cancel(CancelReason::kDeadline);
  EXPECT_EQ(token.ToStatus("ctx").code(), StatusCode::kDeadlineExceeded);
}

TEST(Deadline, VirtualTimeExpiry) {
  ScopedFakeClock clock;
  const Deadline deadline = Deadline::After(2.0);
  EXPECT_FALSE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.remaining_seconds(), 2.0);
  FakeClock::Advance(1'999'999'999);
  EXPECT_FALSE(deadline.expired());
  FakeClock::Advance(1);
  EXPECT_TRUE(deadline.expired());
}

TEST(Deadline, ZeroOrNegativeBudgetIsInfinite) {
  EXPECT_TRUE(Deadline::AfterBudget(0.0).infinite());
  EXPECT_TRUE(Deadline::AfterBudget(-1.0).infinite());
  EXPECT_FALSE(Deadline::Infinite().expired());
  EXPECT_FALSE(Deadline::AfterBudget(5.0).infinite());
}

TEST(CheckInterrupt, PriorityCancelOverDeadlineOverBudget) {
  ScopedFakeClock clock;
  CancellationToken token;
  const Deadline expired = Deadline::After(1.0);
  FakeClock::Advance(2'000'000'000);

  // All three tripped: cancel wins.
  token.Cancel(CancelReason::kShutdown);
  EXPECT_EQ(CheckInterrupt(&token, expired, 10, 5, "ctx").code(),
            StatusCode::kCancelled);
  // Deadline and budget tripped: deadline wins.
  EXPECT_EQ(CheckInterrupt(nullptr, expired, 10, 5, "ctx").code(),
            StatusCode::kDeadlineExceeded);
  // Budget only.
  EXPECT_EQ(
      CheckInterrupt(nullptr, Deadline::Infinite(), 10, 5, "ctx").code(),
      StatusCode::kDeadlineExceeded);
  // Budget not yet reached, nothing else set: ok.
  EXPECT_TRUE(
      CheckInterrupt(nullptr, Deadline::Infinite(), 4, 5, "ctx").ok());
  // step_budget 0 = unlimited.
  EXPECT_TRUE(
      CheckInterrupt(nullptr, Deadline::Infinite(), 1'000'000, 0, "ctx").ok());
}

TEST(SignalHandler, RaisedSignalCancelsTokenAndMapsExitCode) {
  CancellationToken token;
  InstallShutdownHandlers(&token);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kShutdown);
  EXPECT_EQ(LastShutdownSignal(), SIGTERM);
  EXPECT_EQ(ShutdownExitCode(), 128 + SIGTERM);
  UninstallShutdownHandlers();
}

// ---------------------------------------------------------------------------
// Searcher integration.
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
  options.epochs = 2;
  options.batch_size = 8;
  options.max_batches_per_epoch = 4;
  return options;
}

TEST(SearchCancellation, StepBudgetReturnsDeadlineExceeded) {
  const PreparedData data = TinyData();
  SearchOptions options = TinySearchOptions();
  options.step_budget = 3;
  StatusOr<SearchResult> result =
      JointSearcher(options).SearchWithStatus(data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SearchCancellation, CancelledSearchResumesBitIdentical) {
  const PreparedData data = TinyData();
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    // Uninterrupted reference.
    SearchOptions reference_options = TinySearchOptions();
    const SearchResult reference =
        JointSearcher(reference_options).Search(data);

    // Interrupt after 3 steps via a step budget (the same final-checkpoint
    // path a SIGTERM takes), then resume to completion.
    const std::string path = TempPath("cancel_resume.bin");
    RemoveGenerations(path);
    SearchOptions interrupted = TinySearchOptions();
    interrupted.checkpoint_path = path;
    interrupted.checkpoint_every_n_batches = 2;
    interrupted.step_budget = 3;
    StatusOr<SearchResult> first =
        JointSearcher(interrupted).SearchWithStatus(data);
    ASSERT_FALSE(first.ok());
    ASSERT_TRUE(FileExists(path));

    SearchOptions resumed_options = TinySearchOptions();
    resumed_options.checkpoint_path = path;
    resumed_options.checkpoint_every_n_batches = 2;
    resumed_options.resume = true;
    const SearchResult resumed = JointSearcher(resumed_options).Search(data);

    EXPECT_EQ(resumed.genotype.ToText(), reference.genotype.ToText())
        << "threads=" << threads;
    EXPECT_EQ(resumed.final_validation_loss, reference.final_validation_loss)
        << "threads=" << threads;
    RemoveGenerations(path);
  }
  SetNumThreads(1);
}

TEST(SearchCancellation, ExternalTokenCancelsMidRun) {
  const PreparedData data = TinyData();
  CancellationToken token;
  token.Cancel(CancelReason::kShutdown);
  SearchOptions options = TinySearchOptions();
  options.cancel = &token;
  StatusOr<SearchResult> result =
      JointSearcher(options).SearchWithStatus(data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(SearchCancellation, UninterruptedRunUnchangedByWiring) {
  const PreparedData data = TinyData();
  SearchOptions plain = TinySearchOptions();
  const SearchResult without = JointSearcher(plain).Search(data);

  CancellationToken token;  // never cancelled
  SearchOptions wired = TinySearchOptions();
  wired.cancel = &token;
  wired.deadline = Deadline::AfterBudget(3600.0);
  wired.step_budget = 1'000'000;
  const SearchResult with = JointSearcher(wired).Search(data);

  EXPECT_EQ(without.genotype.ToText(), with.genotype.ToText());
  EXPECT_EQ(without.final_validation_loss, with.final_validation_loss);
}

// ---------------------------------------------------------------------------
// Eval-scheduler integration.
// ---------------------------------------------------------------------------

EvalSchedulerOptions TinyEvalOptions() {
  EvalSchedulerOptions options;
  options.workers = 2;
  options.hidden_dim = 8;
  options.verbose = false;
  options.train.epochs = 1;
  options.train.batch_size = 8;
  options.train.max_batches_per_epoch = 2;
  options.train.seed = 7;
  return options;
}

TEST(EvalCancellation, BudgetedCandidateFailsAloneBitIdentically) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = fixtures::MakeCandidateGenotypes(3);
  // Reference: all three trained cleanly.
  StatusOr<core::EvalBatchResult> clean =
      EvalScheduler(TinyEvalOptions()).Evaluate(candidates, data);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean.value().failed, 0);

  // Candidate 1 gets a 1-batch step budget through the setup hook; the
  // others keep their full budget.
  EvalSchedulerOptions options = TinyEvalOptions();
  options.candidate_setup_hook = [](int64_t index,
                                    models::TrainConfig* config) {
    if (index == 1) config->step_budget = 1;
  };
  StatusOr<core::EvalBatchResult> budgeted =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted.value().failed, 1);
  EXPECT_EQ(budgeted.value().candidates[1].status.code(),
            StatusCode::kDeadlineExceeded);
  for (const int64_t i : {0, 2}) {
    EXPECT_TRUE(budgeted.value().candidates[i].status.ok());
    EXPECT_EQ(budgeted.value().candidates[i].result.average.mae,
              clean.value().candidates[i].result.average.mae)
        << "candidate " << i;
    EXPECT_EQ(budgeted.value().candidates[i].result.final_train_loss,
              clean.value().candidates[i].result.final_train_loss)
        << "candidate " << i;
  }
}

TEST(EvalCancellation, DeadlineExceededCodeSurvivesCheckpointResume) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("eval_deadline_resume.bin");
  RemoveGenerations(path);
  const std::vector<Genotype> candidates = fixtures::MakeCandidateGenotypes(2);

  EvalSchedulerOptions options = TinyEvalOptions();
  options.checkpoint_path = path;
  options.candidate_setup_hook = [](int64_t index,
                                    models::TrainConfig* config) {
    if (index == 0) config->step_budget = 1;
  };
  StatusOr<core::EvalBatchResult> first =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().candidates[0].status.code(),
            StatusCode::kDeadlineExceeded);

  // A resume run (no setup hook this time) must surface the persisted
  // failure with its original code, not retrain candidate 0.
  EvalSchedulerOptions resume_options = TinyEvalOptions();
  resume_options.checkpoint_path = path;
  StatusOr<core::EvalBatchResult> resumed =
      EvalScheduler(resume_options).Evaluate(candidates, data);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed.value().candidates[0].resumed);
  EXPECT_EQ(resumed.value().candidates[0].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resumed.value().candidates[1].status.ok());
  RemoveGenerations(path);
}

TEST(EvalCancellation, WallBudgetStopsRunawayCandidate) {
  const PreparedData data = TinyData();
  // A generous epoch count so the run would take far longer than the
  // budget; the trainer's deadline check at every batch (real clock) must
  // cut it short.
  EvalSchedulerOptions options = TinyEvalOptions();
  options.workers = 1;
  options.train.epochs = 1000;
  options.train.max_batches_per_epoch = 4;
  options.candidate_wall_budget_seconds = 0.05;
  Stopwatch watch;
  StatusOr<core::EvalBatchResult> result = EvalScheduler(options).Evaluate(
      fixtures::MakeCandidateGenotypes(1), data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().candidates[0].status.code(),
            StatusCode::kDeadlineExceeded);
  // Sanity bound: the 1000-epoch run ended in seconds, not minutes.
  EXPECT_LT(watch.Seconds(), 30.0);
}

TEST(EvalCancellation, ExternalCancelStopsSchedulingAndReturnsCancelled) {
  const PreparedData data = TinyData();
  CancellationToken token;
  token.Cancel(CancelReason::kShutdown);
  EvalSchedulerOptions options = TinyEvalOptions();
  options.cancel = &token;
  StatusOr<core::EvalBatchResult> result = EvalScheduler(options).Evaluate(
      fixtures::MakeCandidateGenotypes(2), data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(EvalCancellation, MidBatchCancelPersistsFinishedCandidates) {
  const PreparedData data = TinyData();
  const std::string path = TempPath("eval_cancel_resume.bin");
  RemoveGenerations(path);
  const std::vector<Genotype> candidates = fixtures::MakeCandidateGenotypes(3);

  CancellationToken token;
  EvalSchedulerOptions options = TinyEvalOptions();
  options.workers = 1;
  options.checkpoint_path = path;
  options.cancel = &token;
  // Cancel as soon as the first candidate has been persisted.
  options.post_persist_hook = [&token](int64_t persisted) {
    if (persisted >= 1) token.Cancel(CancelReason::kShutdown);
  };
  StatusOr<core::EvalBatchResult> first =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(FileExists(path));

  // Resume completes the remaining candidates; the batch matches a clean
  // uninterrupted run bit-for-bit.
  EvalSchedulerOptions resume_options = TinyEvalOptions();
  resume_options.checkpoint_path = path;
  StatusOr<core::EvalBatchResult> resumed =
      EvalScheduler(resume_options).Evaluate(candidates, data);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed.value().resumed, 1);

  StatusOr<core::EvalBatchResult> clean =
      EvalScheduler(TinyEvalOptions()).Evaluate(candidates, data);
  ASSERT_TRUE(clean.ok());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(resumed.value().candidates[i].result.average.mae,
              clean.value().candidates[i].result.average.mae)
        << "candidate " << i;
  }
  RemoveGenerations(path);
}

}  // namespace
}  // namespace autocts
