// Suite for the parallel top-K candidate evaluation scheduler
// (core/eval_scheduler.h):
//   * sequential-vs-parallel bit-identity at 1/2/4 workers, including under
//     an artificially reversed completion order;
//   * per-candidate fault isolation — an injected NaN divergence fails only
//     the poisoned candidate, bit-identically to a clean run elsewhere;
//   * crash-safe resume — a mid-batch kill at an exact persist boundary
//     resumes from the checkpoint, re-evaluates only the unfinished
//     candidates, and reproduces the uninterrupted batch bit-for-bit;
//   * codec round-trips for the candidate-set and eval-checkpoint formats
//     and rejection of inconsistent records (byte flips and truncations of
//     the sealed eval checkpoint are swept in sealed_format_test);
//   * metrics determinism — the non-"wall/" CSV projection is byte-equal
//     across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/metrics_registry.h"
#include "common/text_codec.h"
#include "core/eval_scheduler.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/trainer.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

using core::CandidateOutcome;
using core::CandidateSeed;
using core::DecodeCandidateSet;
using core::DecodeEvalCheckpoint;
using core::EncodeCandidateSet;
using core::EncodeEvalCheckpoint;
using core::EvalBatchResult;
using core::EvalCheckpoint;
using core::EvalScheduler;
using core::EvalSchedulerOptions;
using core::Genotype;
using core::LoadEvalCheckpoint;
using models::PreparedData;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Thrown from the post-persist hook to simulate a crash right after a
// checkpoint generation hit the disk (see tests/checkpoint_test.cc).
struct KillSignal {};

PreparedData TinyData(uint64_t seed = 47) {
  return fixtures::TinyPreparedData(seed);
}

Genotype MakeCandidate(int64_t variant) {
  return fixtures::MakeCandidateGenotype(variant);
}

std::vector<Genotype> MakeCandidates(int64_t count) {
  return fixtures::MakeCandidateGenotypes(count);
}

EvalSchedulerOptions TinyOptions() {
  EvalSchedulerOptions options;
  options.hidden_dim = 8;
  options.train.epochs = 1;
  options.train.batch_size = 8;
  options.train.max_batches_per_epoch = 2;
  options.train.seed = 11;
  return options;
}

std::string TempPath(const std::string& name) {
  return fixtures::TempPath("eval_scheduler_test", name);
}

void RemoveGenerations(const std::string& path) {
  fixtures::RemoveGenerations(path);
}

// Bit-exact equality of everything deterministic in an outcome (wall-clock
// fields excluded by design).
void ExpectSameOutcome(const CandidateOutcome& expected,
                       const CandidateOutcome& actual) {
  ASSERT_EQ(expected.status.ok(), actual.status.ok())
      << expected.status.ToString() << " vs " << actual.status.ToString();
  if (!expected.status.ok()) {
    EXPECT_EQ(expected.status.message(), actual.status.message());
    return;
  }
  const models::EvalResult& e = expected.result;
  const models::EvalResult& a = actual.result;
  EXPECT_EQ(e.average.mae, a.average.mae);
  EXPECT_EQ(e.average.rmse, a.average.rmse);
  EXPECT_EQ(e.average.mape, a.average.mape);
  EXPECT_EQ(e.rrse, a.rrse);
  EXPECT_EQ(e.corr, a.corr);
  EXPECT_EQ(e.final_train_loss, a.final_train_loss);
  EXPECT_EQ(e.epochs_run, a.epochs_run);
  EXPECT_EQ(e.parameter_count, a.parameter_count);
  EXPECT_EQ(e.recoveries, a.recoveries);
  EXPECT_EQ(e.skipped_steps, a.skipped_steps);
  EXPECT_EQ(e.last_anomaly, a.last_anomaly);
  ASSERT_EQ(e.per_horizon.size(), a.per_horizon.size());
  for (size_t h = 0; h < e.per_horizon.size(); ++h) {
    EXPECT_EQ(e.per_horizon[h].mae, a.per_horizon[h].mae);
    EXPECT_EQ(e.per_horizon[h].rmse, a.per_horizon[h].rmse);
    EXPECT_EQ(e.per_horizon[h].mape, a.per_horizon[h].mape);
  }
}

void ExpectSameBatch(const EvalBatchResult& expected,
                     const EvalBatchResult& actual) {
  ASSERT_EQ(expected.candidates.size(), actual.candidates.size());
  for (size_t i = 0; i < expected.candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    ExpectSameOutcome(expected.candidates[i], actual.candidates[i]);
  }
  EXPECT_EQ(expected.best_index, actual.best_index);
  EXPECT_EQ(expected.failed, actual.failed);
}

// --------------------------------------------------------------------------
// RNG stream splitting.
// --------------------------------------------------------------------------

TEST(CandidateSeedTest, PureFunctionAndDistinct) {
  std::set<uint64_t> seen;
  for (int64_t i = 0; i < 64; ++i) {
    const uint64_t seed = CandidateSeed(11, i);
    EXPECT_EQ(seed, CandidateSeed(11, i));  // pure
    EXPECT_TRUE(seen.insert(seed).second) << "collision at index " << i;
  }
  // Distinct base seeds get distinct streams, and candidate 0 does not
  // replay the base seed itself.
  EXPECT_NE(CandidateSeed(11, 0), CandidateSeed(12, 0));
  EXPECT_NE(CandidateSeed(11, 0), 11u);
}

// --------------------------------------------------------------------------
// Candidate-set codec.
// --------------------------------------------------------------------------

TEST(CandidateSetCodec, RoundTripsMultipleGenotypes) {
  const std::vector<Genotype> candidates = MakeCandidates(3);
  const std::string text = EncodeCandidateSet(candidates);
  const StatusOr<std::vector<Genotype>> decoded = DecodeCandidateSet(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(decoded.value()[i], candidates[i]);
  }
  // Encoding is deterministic.
  EXPECT_EQ(text, EncodeCandidateSet(decoded.value()));
}

TEST(CandidateSetCodec, AcceptsBareGenotypeDocument) {
  const Genotype genotype = MakeCandidate(0);
  const StatusOr<std::vector<Genotype>> decoded =
      DecodeCandidateSet(genotype.ToText());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0], genotype);
}

TEST(CandidateSetCodec, RejectsCountMismatchAndBadMarkers) {
  const std::vector<Genotype> candidates = MakeCandidates(2);
  std::string text = EncodeCandidateSet(candidates);
  const size_t count_pos = text.find("count = 2");
  ASSERT_NE(count_pos, std::string::npos);
  std::string wrong_count = text;
  wrong_count[count_pos + 8] = '3';
  EXPECT_FALSE(DecodeCandidateSet(wrong_count).ok());

  // Candidate markers without the format header are not a bare genotype.
  const std::string headerless =
      "candidate = 0\n" + candidates[0].ToText();
  EXPECT_FALSE(DecodeCandidateSet(headerless).ok());
}

// --------------------------------------------------------------------------
// Eval-checkpoint codec.
// --------------------------------------------------------------------------

EvalCheckpoint SampleCheckpoint() { return fixtures::SampleEvalCheckpoint(); }

TEST(EvalCheckpointCodec, RoundTripsBitExactly) {
  const EvalCheckpoint checkpoint = SampleCheckpoint();
  const std::string text = EncodeEvalCheckpoint(checkpoint);
  const StatusOr<EvalCheckpoint> decoded = DecodeEvalCheckpoint(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const EvalCheckpoint& restored = decoded.value();
  EXPECT_EQ(restored.config_fingerprint, checkpoint.config_fingerprint);
  EXPECT_EQ(restored.candidate_count, checkpoint.candidate_count);
  ASSERT_EQ(restored.completed.size(), checkpoint.completed.size());
  for (size_t i = 0; i < checkpoint.completed.size(); ++i) {
    EXPECT_EQ(restored.completed[i].first, checkpoint.completed[i].first);
    CandidateOutcome a, b;
    a.result = checkpoint.completed[i].second;
    b.result = restored.completed[i].second;
    // NaN-valued train loss must survive the hex-float round trip.
    if (std::isnan(a.result.final_train_loss)) {
      EXPECT_TRUE(std::isnan(b.result.final_train_loss));
      a.result.final_train_loss = 0.0;
      b.result.final_train_loss = 0.0;
    }
    ExpectSameOutcome(a, b);
  }
  EXPECT_EQ(restored.failed, checkpoint.failed);
  // Re-encoding the decoded checkpoint is byte-identical.
  EXPECT_EQ(EncodeEvalCheckpoint(restored), text);
}

TEST(EvalCheckpointCodec, RejectsInconsistentRecords) {
  EvalCheckpoint checkpoint = SampleCheckpoint();
  checkpoint.failed = {{0, "also completed"}};  // overlaps completed set
  const std::string overlapping = EncodeEvalCheckpoint(checkpoint);
  EXPECT_FALSE(DecodeEvalCheckpoint(overlapping).ok());

  checkpoint = SampleCheckpoint();
  checkpoint.completed.push_back({1, models::EvalResult()});  // not ascending
  EXPECT_FALSE(
      DecodeEvalCheckpoint(EncodeEvalCheckpoint(checkpoint)).ok());
}

// --------------------------------------------------------------------------
// Scheduler: bit-identity across worker counts.
// --------------------------------------------------------------------------

TEST(EvalSchedulerTest, ParallelMatchesSequentialBitExactly) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = MakeCandidates(4);

  EvalSchedulerOptions options = TinyOptions();
  options.workers = 1;
  const StatusOr<EvalBatchResult> sequential =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  EXPECT_EQ(sequential.value().evaluated, 4);
  EXPECT_EQ(sequential.value().failed, 0);
  ASSERT_GE(sequential.value().best_index, 0);

  for (const int64_t workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    options.workers = workers;
    const StatusOr<EvalBatchResult> parallel =
        EvalScheduler(options).Evaluate(candidates, data);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameBatch(sequential.value(), parallel.value());
  }
}

TEST(EvalSchedulerTest, DeterministicUnderReversedCompletionOrder) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = MakeCandidates(4);

  EvalSchedulerOptions options = TinyOptions();
  options.workers = 1;
  const StatusOr<EvalBatchResult> baseline =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // With one worker per candidate, stall each completion until every
  // higher-indexed candidate has already been published: completions reach
  // the driver in exactly reversed candidate order.
  std::mutex mutex;
  std::condition_variable released;
  std::set<int64_t> completed;
  options.workers = 4;
  options.completion_hook = [&](int64_t index) {
    std::unique_lock<std::mutex> lock(mutex);
    released.wait(lock, [&] {
      for (int64_t later = index + 1; later < 4; ++later) {
        if (completed.count(later) == 0) return false;
      }
      return true;
    });
    completed.insert(index);
    released.notify_all();
  };
  const StatusOr<EvalBatchResult> reversed =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(reversed.ok()) << reversed.status().ToString();
  EXPECT_EQ(completed.size(), 4u);
  ExpectSameBatch(baseline.value(), reversed.value());
}

// --------------------------------------------------------------------------
// Scheduler: fault isolation.
// --------------------------------------------------------------------------

TEST(EvalSchedulerTest, DivergingCandidateFailsAloneAndBitIdentically) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = MakeCandidates(4);

  EvalSchedulerOptions options = TinyOptions();
  options.workers = 1;
  const StatusOr<EvalBatchResult> clean =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Poison candidate 1's gradients on its first batch (recovery disabled,
  // so its training fails with an attribution). No fire-once guard: the
  // attribution pass replays the hook and the corruption must reappear.
  options.workers = 2;
  options.candidate_setup_hook = [](int64_t index,
                                    models::TrainConfig* config) {
    if (index != 1) return;
    config->fault_injection_hook = [](int64_t epoch, int64_t batch,
                                      models::ForecastingModel* model) {
      if (epoch != 0 || batch != 0) return;
      for (const Variable& parameter : model->Parameters()) {
        if (!parameter.has_grad()) continue;
        Tensor grad = parameter.grad();
        grad.data()[0] = kNaN;
        return;
      }
    };
  };
  const StatusOr<EvalBatchResult> poisoned =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(poisoned.ok()) << poisoned.status().ToString();
  const EvalBatchResult& batch = poisoned.value();
  EXPECT_EQ(batch.failed, 1);
  EXPECT_FALSE(batch.candidates[1].status.ok());
  EXPECT_NE(batch.candidates[1].status.message().find("non-finite"),
            std::string::npos)
      << batch.candidates[1].status.message();
  // Every other candidate is untouched, bit-for-bit.
  for (const int64_t i : {0, 2, 3}) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    ExpectSameOutcome(clean.value().candidates[i], batch.candidates[i]);
  }
}

// --------------------------------------------------------------------------
// Scheduler: crash-safe resume.
// --------------------------------------------------------------------------

TEST(EvalSchedulerTest, ResumesFromCheckpointWithoutReEvaluating) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = MakeCandidates(4);
  const std::string path = TempPath("resume.ckpt");
  RemoveGenerations(path);

  EvalSchedulerOptions options = TinyOptions();
  options.workers = 1;
  const StatusOr<EvalBatchResult> baseline =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Kill at the exact boundary after the second candidate was persisted.
  options.checkpoint_path = path;
  options.post_persist_hook = [](int64_t persisted) {
    if (persisted >= 2) throw KillSignal{};
  };
  EXPECT_THROW(
      { (void)EvalScheduler(options).Evaluate(candidates, data); },
      KillSignal);
  const StatusOr<EvalCheckpoint> on_disk = LoadEvalCheckpoint(path);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_EQ(on_disk.value().completed.size() + on_disk.value().failed.size(),
            2u);

  // The resumed run re-evaluates only the two unfinished candidates and
  // reproduces the uninterrupted batch bit-for-bit.
  options.post_persist_hook = nullptr;
  const StatusOr<EvalBatchResult> resumed =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().resumed, 2);
  EXPECT_EQ(resumed.value().evaluated, 2);
  EXPECT_TRUE(resumed.value().candidates[0].resumed);
  EXPECT_TRUE(resumed.value().candidates[1].resumed);
  ExpectSameBatch(baseline.value(), resumed.value());

  // A third run restores everything.
  const StatusOr<EvalBatchResult> all_resumed =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(all_resumed.ok()) << all_resumed.status().ToString();
  EXPECT_EQ(all_resumed.value().resumed, 4);
  EXPECT_EQ(all_resumed.value().evaluated, 0);
  ExpectSameBatch(baseline.value(), all_resumed.value());
  RemoveGenerations(path);
}

TEST(EvalSchedulerTest, MismatchedFingerprintStartsFresh) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = MakeCandidates(2);
  const std::string path = TempPath("fingerprint.ckpt");
  RemoveGenerations(path);

  EvalSchedulerOptions options = TinyOptions();
  options.workers = 2;
  options.checkpoint_path = path;
  const StatusOr<EvalBatchResult> first =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().evaluated, 2);

  // A different training seed is a different batch: the stale checkpoint
  // must be ignored, not restored into wrong results.
  options.train.seed = 12;
  const StatusOr<EvalBatchResult> reseeded =
      EvalScheduler(options).Evaluate(candidates, data);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_EQ(reseeded.value().resumed, 0);
  EXPECT_EQ(reseeded.value().evaluated, 2);
  RemoveGenerations(path);
}

TEST(EvalSchedulerTest, UnknownOperatorIsRefusedBeforeAnyWorkerStarts) {
  const PreparedData data = TinyData();
  std::vector<Genotype> candidates = MakeCandidates(2);
  candidates[1].blocks[0].edges[0].op = "bogus_op";
  EvalSchedulerOptions options = TinyOptions();
  options.workers = 2;
  std::atomic<int64_t> started{0};
  options.candidate_setup_hook = [&](int64_t, models::TrainConfig*) {
    ++started;
  };
  const StatusOr<EvalBatchResult> result =
      EvalScheduler(options).Evaluate(candidates, data);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("candidate 1"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(started.load(), 0);
}

// --------------------------------------------------------------------------
// Scheduler: metrics determinism.
// --------------------------------------------------------------------------

TEST(EvalSchedulerTest, MetricsDeterministicColumnsMatchAcrossWorkers) {
  const PreparedData data = TinyData();
  const std::vector<Genotype> candidates = MakeCandidates(3);

  const auto run = [&](int64_t workers, obs::MetricsRegistry* registry) {
    EvalSchedulerOptions options = TinyOptions();
    options.workers = workers;
    options.metrics = registry;
    const StatusOr<EvalBatchResult> result =
        EvalScheduler(options).Evaluate(candidates, data);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  obs::MetricsRegistry sequential;
  obs::MetricsRegistry parallel;
  run(1, &sequential);
  run(3, &parallel);
  ASSERT_EQ(sequential.rows().size(), 4u);  // 3 candidates + 1 batch row
  EXPECT_EQ(obs::MetricsRegistry::StripWallColumns(sequential.ToCsv()),
            obs::MetricsRegistry::StripWallColumns(parallel.ToCsv()));
}

// --------------------------------------------------------------------------
// Search integration: DeriveTopK feeding the scheduler.
// --------------------------------------------------------------------------

TEST(EvalSchedulerTest, SearchDerivesRankedDistinctCandidates) {
  core::SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.epochs = 1;
  options.batch_size = 8;
  options.max_batches_per_epoch = 2;
  options.derive_top_k = 3;
  const StatusOr<core::SearchResult> result =
      core::JointSearcher(options).SearchWithStatus(TinyData());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<Genotype>& top = result.value().top_genotypes;
  ASSERT_GE(top.size(), 2u);
  ASSERT_LE(top.size(), 3u);
  EXPECT_EQ(top[0], result.value().genotype);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(top[i].Validate().ok());
    for (size_t j = i + 1; j < top.size(); ++j) {
      EXPECT_NE(top[i], top[j]) << "candidates " << i << "/" << j;
    }
  }
}

}  // namespace
}  // namespace autocts
