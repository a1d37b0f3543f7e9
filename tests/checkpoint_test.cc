// Crash-safety suite for the search checkpoint subsystem:
//   * kill-point fault injection — abort the search after every checkpoint
//     boundary, resume, and require the bit-exact genotype / Theta / loss of
//     an uninterrupted run, under 1 and 4 threads;
//   * post-CRC validation — foreign formats, future versions and
//     inconsistent record counts are rejected even with a valid trailer
//     (byte flips and truncations are swept in sealed_format_test);
//   * previous-generation fallback — a corrupt newest checkpoint falls back
//     to "<path>.prev" and still reproduces the uninterrupted run;
//   * exact state-dict round-trips across the whole baseline model zoo.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/parallel.h"
#include "common/text_codec.h"
#include "common/metrics_registry.h"
#include "core/search_checkpoint.h"
#include "core/search_metrics.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/state_dict.h"
#include "tensor/tensor_ops.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

using core::DecodeSearchCheckpoint;
using core::EncodeSearchCheckpoint;
using core::JointSearcher;
using core::LoadSearchCheckpoint;
using core::LoadSearchCheckpointOrPrev;
using core::SaveSearchCheckpoint;
using core::SearchCheckpoint;
using core::SearchOptions;
using core::SearchResult;
using models::PreparedData;

// Thrown from the post-checkpoint hook to simulate a crash at a checkpoint
// boundary: it unwinds Search() right after the file hit the disk, which is
// exactly the state a killed process would leave behind.
struct KillSignal {};

PreparedData TinyData(uint64_t seed = 31) {
  return fixtures::TinyPreparedData(seed);
}

SearchOptions TinyOptions() {
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

// 2 epochs x 4 batches at checkpoint_every_n_batches=2 => 4 checkpoint
// boundaries, whose cursors are (0,2), (1,0), (1,2), (2,0).
constexpr int64_t kCheckpointEvery = 2;
constexpr int64_t kNumBoundaries = 4;

SearchOptions CheckpointedOptions(const std::string& path,
                                  const SearchOptions& base = TinyOptions()) {
  SearchOptions options = base;
  options.checkpoint_path = path;
  options.checkpoint_every_n_batches = kCheckpointEvery;
  return options;
}

std::string TempPath(const std::string& name) {
  return fixtures::TempPath("checkpoint_test", name);
}

void RemoveGenerations(const std::string& path) {
  fixtures::RemoveGenerations(path);
}

void ExpectTensorBitsEqual(const Tensor& a, const Tensor& b,
                           const std::string& label) {
  ASSERT_TRUE(a.defined() == b.defined()) << label;
  if (!a.defined()) return;
  ASSERT_EQ(a.shape(), b.shape()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(double)),
            0)
      << label << " differs bitwise";
}

void ExpectNamedTensorsBitsEqual(
    const std::vector<std::pair<std::string, Tensor>>& a,
    const std::vector<std::pair<std::string, Tensor>>& b,
    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << label << " slot " << i;
    ExpectTensorBitsEqual(a[i].second, b[i].second, label + ":" + a[i].first);
  }
}

// Full-state bitwise comparison of two checkpoints (weights, Theta, Adam
// moments, Rng, orders, cursor, accumulators).
void ExpectCheckpointsBitsEqual(const SearchCheckpoint& a,
                                const SearchCheckpoint& b) {
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.val_loss_sum, b.val_loss_sum);
  EXPECT_EQ(a.epoch_steps, b.epoch_steps);
  EXPECT_EQ(a.final_validation_loss, b.final_validation_loss);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.words[i], b.rng.words[i]);
  EXPECT_EQ(a.rng.has_cached_normal, b.rng.has_cached_normal);
  EXPECT_EQ(a.rng.cached_normal, b.rng.cached_normal);
  EXPECT_EQ(a.pseudo_train, b.pseudo_train);
  EXPECT_EQ(a.pseudo_val, b.pseudo_val);
  ExpectNamedTensorsBitsEqual(a.parameters, b.parameters, "param");
  ExpectNamedTensorsBitsEqual(a.arch_parameters, b.arch_parameters, "arch");
  EXPECT_EQ(a.weight_optimizer.step_count, b.weight_optimizer.step_count);
  EXPECT_EQ(a.theta_optimizer.step_count, b.theta_optimizer.step_count);
  ASSERT_EQ(a.weight_optimizer.first_moment.size(),
            b.weight_optimizer.first_moment.size());
  for (size_t i = 0; i < a.weight_optimizer.first_moment.size(); ++i) {
    ExpectTensorBitsEqual(a.weight_optimizer.first_moment[i],
                          b.weight_optimizer.first_moment[i], "adam_w_m");
    ExpectTensorBitsEqual(a.weight_optimizer.second_moment[i],
                          b.weight_optimizer.second_moment[i], "adam_w_v");
  }
  ASSERT_EQ(a.theta_optimizer.first_moment.size(),
            b.theta_optimizer.first_moment.size());
  for (size_t i = 0; i < a.theta_optimizer.first_moment.size(); ++i) {
    ExpectTensorBitsEqual(a.theta_optimizer.first_moment[i],
                          b.theta_optimizer.first_moment[i], "adam_t_m");
    ExpectTensorBitsEqual(a.theta_optimizer.second_moment[i],
                          b.theta_optimizer.second_moment[i], "adam_t_v");
  }
}

// The synthetic checkpoint pinned in tests/testdata/sealed_golden_v1/.
// Codec-level tests run on it instead of a real search snapshot.
SearchCheckpoint MakeSyntheticCheckpoint() {
  return fixtures::SyntheticSearchCheckpoint();
}

// ---------------------------------------------------------------------------
// Codec: round-trip and post-CRC validation. The corruption sweep over every
// byte and truncation lives in sealed_format_test.
// ---------------------------------------------------------------------------

TEST(SearchCheckpointCodec, SyntheticRoundTripIsBitExact) {
  const SearchCheckpoint original = MakeSyntheticCheckpoint();
  const std::string text = EncodeSearchCheckpoint(original);
  StatusOr<SearchCheckpoint> decoded = DecodeSearchCheckpoint(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectCheckpointsBitsEqual(original, decoded.value());
  // Re-encoding the decoded state reproduces the identical byte stream.
  EXPECT_EQ(EncodeSearchCheckpoint(decoded.value()), text);
}

TEST(SearchCheckpointCodec, RejectsForeignFormatsAndWrongVersion) {
  EXPECT_FALSE(DecodeSearchCheckpoint("hello world\n").ok());
  EXPECT_FALSE(
      DecodeSearchCheckpoint(SealText("format = not-a-checkpoint\n")).ok());
  // A structurally valid file from a hypothetical future version must be
  // refused even though its CRC is intact.
  std::string payload = EncodeSearchCheckpoint(MakeSyntheticCheckpoint());
  payload = payload.substr(0, payload.rfind("crc32 = "));
  const std::string marker = "version = 1\n";
  const size_t at = payload.find(marker);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, marker.size(), "version = 2\n");
  const StatusOr<SearchCheckpoint> result =
      DecodeSearchCheckpoint(SealText(payload));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("version"), std::string::npos);
}

TEST(SearchCheckpointCodec, RejectsInconsistentRecordCounts) {
  // param_count disagreeing with the number of param records must fail even
  // with a valid CRC (guards against logic bugs, not just bit rot).
  std::string payload = EncodeSearchCheckpoint(MakeSyntheticCheckpoint());
  payload = payload.substr(0, payload.rfind("crc32 = "));
  const std::string marker = "param_count = 2\n";
  const size_t at = payload.find(marker);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, marker.size(), "param_count = 3\n");
  EXPECT_FALSE(DecodeSearchCheckpoint(SealText(payload)).ok());
}

// ---------------------------------------------------------------------------
// Files: atomic generations and the .prev fallback.
// ---------------------------------------------------------------------------

TEST(SearchCheckpointFiles, SaveRotatesGenerationsAndLoadFallsBackToPrev) {
  const std::string path = TempPath("generations");
  RemoveGenerations(path);

  SearchCheckpoint first = MakeSyntheticCheckpoint();
  ASSERT_TRUE(SaveSearchCheckpoint(first, path).ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".prev"));

  SearchCheckpoint second = first;
  second.epoch = 1;
  second.step = 3;
  ASSERT_TRUE(SaveSearchCheckpoint(second, path).ok());
  ASSERT_TRUE(FileExists(path + ".prev"));

  bool used_prev = true;
  StatusOr<SearchCheckpoint> loaded = LoadSearchCheckpointOrPrev(path, &used_prev);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(used_prev);
  EXPECT_EQ(loaded.value().step, 3);

  // Corrupt the newest generation: the previous one must load instead.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not a checkpoint";
  }
  loaded = LoadSearchCheckpointOrPrev(path, &used_prev);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(used_prev);
  ExpectCheckpointsBitsEqual(first, loaded.value());

  // Newest generation missing entirely: still served from .prev.
  std::remove(path.c_str());
  loaded = LoadSearchCheckpointOrPrev(path, &used_prev);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(used_prev);

  // Both generations gone: a clean non-OK Status, never a crash.
  RemoveGenerations(path);
  EXPECT_FALSE(LoadSearchCheckpointOrPrev(path, &used_prev).ok());
  EXPECT_FALSE(LoadSearchCheckpoint(path).ok());
}

// ---------------------------------------------------------------------------
// Searcher: kill-point fault injection.
// ---------------------------------------------------------------------------

TEST(SearcherCheckpoint, CheckpointingDoesNotPerturbTheSearch) {
  const PreparedData data = TinyData();
  const SearchResult plain = JointSearcher(TinyOptions()).Search(data);

  const std::string path = TempPath("unperturbed");
  RemoveGenerations(path);
  const SearchResult checkpointed =
      JointSearcher(CheckpointedOptions(path)).Search(data);

  EXPECT_EQ(plain.genotype, checkpointed.genotype);
  EXPECT_EQ(plain.final_validation_loss, checkpointed.final_validation_loss);
  RemoveGenerations(path);
}

// The search spaces the kill/resume contract is checked on: the joint
// space and the "macro only" space over the four human-designed blocks.
SearchOptions SpaceOptions(const std::string& space) {
  return space == "macro_only" ? core::MacroOnlyOptions(TinyOptions())
                               : TinyOptions();
}

class KillResumeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KillResumeTest, KillAtEveryBoundaryThenResumeIsBitIdentical) {
  const PreparedData data = TinyData();
  const SearchOptions space = SpaceOptions(GetParam());
  const std::string tag = GetParam() + "_t";
  std::string genotype_across_threads;
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));

    // Uninterrupted reference run (with checkpointing on, so its final
    // checkpoint file provides the reference alpha/beta/gamma bits).
    const std::string base_path =
        TempPath("baseline_" + tag + std::to_string(threads));
    RemoveGenerations(base_path);
    int64_t boundaries_seen = 0;
    SearchOptions base_options = CheckpointedOptions(base_path, space);
    base_options.post_checkpoint_hook = [&](int64_t ordinal,
                                            const std::string&) {
      boundaries_seen = ordinal + 1;
    };
    const SearchResult baseline = JointSearcher(base_options).Search(data);
    ASSERT_EQ(boundaries_seen, kNumBoundaries);
    StatusOr<SearchCheckpoint> base_final = LoadSearchCheckpoint(base_path);
    ASSERT_TRUE(base_final.ok()) << base_final.status().ToString();
    EXPECT_EQ(base_final.value().epoch, space.epochs);
    EXPECT_EQ(base_final.value().step, 0);

    // The searched architecture itself must not depend on the thread count.
    if (genotype_across_threads.empty()) {
      genotype_across_threads = baseline.genotype.ToText();
    } else {
      EXPECT_EQ(genotype_across_threads, baseline.genotype.ToText());
    }

    // Kill after each boundary in turn, resume, compare everything.
    for (int64_t kill = 0; kill < kNumBoundaries; ++kill) {
      SCOPED_TRACE("kill after checkpoint #" + std::to_string(kill));
      const std::string path = TempPath("kill" + std::to_string(kill) + "_" +
                                        tag + std::to_string(threads));
      RemoveGenerations(path);

      SearchOptions killed_options = CheckpointedOptions(path, space);
      killed_options.post_checkpoint_hook = [&](int64_t ordinal,
                                                const std::string&) {
        if (ordinal == kill) throw KillSignal{};
      };
      bool killed = false;
      try {
        JointSearcher(killed_options).Search(data);
      } catch (const KillSignal&) {
        killed = true;
      }
      ASSERT_TRUE(killed);

      SearchOptions resume_options = CheckpointedOptions(path, space);
      resume_options.resume = true;
      const SearchResult resumed =
          JointSearcher(resume_options).Search(data);

      EXPECT_EQ(resumed.genotype, baseline.genotype);
      EXPECT_EQ(resumed.final_validation_loss,
                baseline.final_validation_loss);

      // The final checkpoint of the resumed trajectory carries the same
      // bits — weights, alpha/beta/gamma, Adam moments, Rng — as the
      // uninterrupted run's.
      StatusOr<SearchCheckpoint> resumed_final = LoadSearchCheckpoint(path);
      ASSERT_TRUE(resumed_final.ok()) << resumed_final.status().ToString();
      ExpectCheckpointsBitsEqual(base_final.value(), resumed_final.value());
      RemoveGenerations(path);
    }
    RemoveGenerations(base_path);
  }
  SetNumThreads(1);
}

INSTANTIATE_TEST_SUITE_P(SearcherCheckpoint, KillResumeTest,
                         ::testing::Values("joint", "macro_only"),
                         [](const auto& info) { return info.param; });

TEST(SearcherCheckpoint, PrevFallbackRecoversWhenNewestGenerationIsCorrupt) {
  const PreparedData data = TinyData();
  const std::string base_path = TempPath("prev_baseline");
  RemoveGenerations(base_path);
  const SearchResult baseline =
      JointSearcher(CheckpointedOptions(base_path)).Search(data);

  // Kill after the third checkpoint so two generations exist on disk
  // (main = boundary #2, .prev = boundary #1), then corrupt the newest.
  const std::string path = TempPath("prev_fallback");
  RemoveGenerations(path);
  SearchOptions killed_options = CheckpointedOptions(path);
  killed_options.post_checkpoint_hook = [](int64_t ordinal,
                                           const std::string&) {
    if (ordinal == 2) throw KillSignal{};
  };
  bool killed = false;
  try {
    JointSearcher(killed_options).Search(data);
  } catch (const KillSignal&) {
    killed = true;
  }
  ASSERT_TRUE(killed);
  ASSERT_TRUE(FileExists(path));
  ASSERT_TRUE(FileExists(path + ".prev"));
  {
    // Truncate the newest generation in half: unloadable, CRC gone.
    StatusOr<std::string> content = ReadFileToString(path);
    ASSERT_TRUE(content.ok());
    std::ofstream out(path, std::ios::trunc);
    out << content.value().substr(0, content.value().size() / 2);
  }
  ASSERT_FALSE(LoadSearchCheckpoint(path).ok());

  SearchOptions resume_options = CheckpointedOptions(path);
  resume_options.resume = true;
  const SearchResult resumed = JointSearcher(resume_options).Search(data);
  EXPECT_EQ(resumed.genotype, baseline.genotype);
  EXPECT_EQ(resumed.final_validation_loss, baseline.final_validation_loss);
  RemoveGenerations(path);
  RemoveGenerations(base_path);
}

// A sealed checkpoint whose metrics block is hostile: it rewrites the
// registered counter steps_total as a gauge and reseals. The checkpoint
// decodes, DecodeState refuses the block with InvalidArgument (the
// searcher's next GetCounter of that name would abort), metrics restart
// empty, and the search resumes to the uninterrupted result bit for bit.
TEST(SearcherCheckpoint, HostileMetricsBlockRestartsMetricsOnly) {
  const PreparedData data = TinyData();
  const SearchResult baseline = JointSearcher(TinyOptions()).Search(data);

  const std::string path = TempPath("hostile_metrics");
  RemoveGenerations(path);
  obs::MetricsRegistry killed_registry;
  SearchOptions killed_options = CheckpointedOptions(path);
  killed_options.metrics = &killed_registry;
  killed_options.post_checkpoint_hook = [](int64_t ordinal,
                                           const std::string&) {
    if (ordinal == 0) throw KillSignal{};
  };
  EXPECT_THROW(JointSearcher(killed_options).Search(data), KillSignal);
  {
    StatusOr<std::string> text = ReadFileToString(path);
    ASSERT_TRUE(text.ok());
    StatusOr<std::string> payload = UnsealText(text.value());
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    std::string edited = payload.value();
    const std::string counter = "\nmetrics = counter steps_total ";
    const size_t at = edited.find(counter);
    ASSERT_NE(at, std::string::npos);
    edited.replace(at, edited.find('\n', at + 1) - at,
                   "\nmetrics = gauge steps_total 0x1p+0");
    ASSERT_TRUE(
        AtomicWriteFile(path, SealText(edited), /*keep_previous=*/false).ok());
  }

  obs::MetricsRegistry registry;
  SearchOptions resume_options = CheckpointedOptions(path);
  resume_options.metrics = &registry;
  resume_options.resume = true;
  const SearchResult resumed = JointSearcher(resume_options).Search(data);
  EXPECT_EQ(resumed.genotype, baseline.genotype);
  EXPECT_EQ(resumed.final_validation_loss, baseline.final_validation_loss);
  // The restarted registry counted only the steps after the resume.
  EXPECT_EQ(registry.GetCounter(core::kMetricStepsTotal)->value(), 6);
  RemoveGenerations(path);
}

TEST(SearcherCheckpoint, PrevFallbackRecoversWhenNewestGenerationIsUnhealthy) {
  const PreparedData data = TinyData();
  const std::string base_path = TempPath("unhealthy_baseline");
  RemoveGenerations(base_path);
  const SearchResult baseline =
      JointSearcher(CheckpointedOptions(base_path)).Search(data);

  const std::string path = TempPath("unhealthy_fallback");
  RemoveGenerations(path);
  SearchOptions killed_options = CheckpointedOptions(path);
  killed_options.post_checkpoint_hook = [](int64_t ordinal,
                                           const std::string&) {
    if (ordinal == 2) throw KillSignal{};
  };
  EXPECT_THROW(JointSearcher(killed_options).Search(data), KillSignal);
  ASSERT_TRUE(FileExists(path + ".prev"));
  {
    // A CRC-valid newest generation holding a non-finite tau: it decodes,
    // but resume must refuse it and fall back to ".prev".
    StatusOr<SearchCheckpoint> newest = LoadSearchCheckpoint(path);
    ASSERT_TRUE(newest.ok()) << newest.status().ToString();
    newest.value().tau = std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(AtomicWriteFile(path, EncodeSearchCheckpoint(newest.value()),
                                /*keep_previous=*/false)
                    .ok());
  }
  ASSERT_TRUE(LoadSearchCheckpoint(path).ok());

  SearchOptions resume_options = CheckpointedOptions(path);
  resume_options.resume = true;
  const SearchResult resumed = JointSearcher(resume_options).Search(data);
  EXPECT_EQ(resumed.genotype, baseline.genotype);
  EXPECT_EQ(resumed.final_validation_loss, baseline.final_validation_loss);
  RemoveGenerations(path);
  RemoveGenerations(base_path);
}

TEST(SearcherCheckpoint, MismatchedConfigOrMissingFileStartsFresh) {
  const PreparedData data = TinyData();

  // Resume pointed at a file that does not exist: plain fresh run.
  const std::string missing = TempPath("never_written");
  RemoveGenerations(missing);
  SearchOptions fresh_options = CheckpointedOptions(missing);
  fresh_options.resume = true;
  const SearchResult from_missing =
      JointSearcher(fresh_options).Search(data);
  const SearchResult plain = JointSearcher(TinyOptions()).Search(data);
  EXPECT_EQ(from_missing.genotype, plain.genotype);
  RemoveGenerations(missing);

  // Resume from a checkpoint written under a different configuration: the
  // fingerprint mismatch is detected and the run starts fresh instead of
  // restoring foreign state.
  const std::string path = TempPath("config_mismatch");
  RemoveGenerations(path);
  (void)JointSearcher(CheckpointedOptions(path)).Search(data);
  ASSERT_TRUE(FileExists(path));

  SearchOptions other = CheckpointedOptions(path);
  other.seed = 1234;  // Part of the fingerprint.
  other.resume = true;
  const SearchResult resumed_other = JointSearcher(other).Search(data);
  SearchOptions other_plain = TinyOptions();
  other_plain.seed = 1234;
  const SearchResult fresh_other = JointSearcher(other_plain).Search(data);
  EXPECT_EQ(resumed_other.genotype, fresh_other.genotype);
  EXPECT_EQ(resumed_other.final_validation_loss,
            fresh_other.final_validation_loss);
  RemoveGenerations(path);
}

// A resealed checkpoint that does not fit the supernet (one weight record
// renamed, one Theta record reshaped, one Theta moment reshaped) is refused
// whole: RestoreSearchState writes nothing, and the resumed search starts
// fresh and ends bit-identical to a run that never saw the file. The edits
// sit in the last record of each kind, after everything a restore that
// wrote as it checked would already have written.
TEST(SearcherCheckpoint, MismatchedStateIsRefusedBeforeAnyWrite) {
  const PreparedData data = TinyData();
  const SearchResult fresh = JointSearcher(TinyOptions()).Search(data);
  const std::string path = TempPath("mismatched_state");
  RemoveGenerations(path);
  SearchOptions killed_options = CheckpointedOptions(path);
  killed_options.post_checkpoint_hook = [](int64_t ordinal,
                                           const std::string&) {
    if (ordinal == 1) throw KillSignal{};
  };
  EXPECT_THROW(JointSearcher(killed_options).Search(data), KillSignal);
  StatusOr<SearchCheckpoint> written = LoadSearchCheckpoint(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();

  // Live state shaped like the searcher's, to restore into directly.
  core::Supernet supernet(
      TinyOptions().supernet,
      models::MakeModelContext(data, TinyOptions().supernet.hidden_dim, 1));
  optim::Adam weight_optimizer(supernet.Parameters(), {});
  optim::Adam theta_optimizer(supernet.ArchParameters(), {});
  Rng rng(2);
  std::vector<int64_t> pseudo_train(written.value().pseudo_train.size());
  std::vector<int64_t> pseudo_val(written.value().pseudo_val.size());
  const auto restore = [&](const SearchCheckpoint& checkpoint) {
    return core::RestoreSearchState(checkpoint, &supernet, &weight_optimizer,
                                    &theta_optimizer, &rng, &pseudo_train,
                                    &pseudo_val);
  };
  const auto capture = [&] {
    return core::CaptureSearchState(supernet, weight_optimizer,
                                    theta_optimizer, rng, pseudo_train,
                                    pseudo_val);
  };

  const std::pair<const char*, void (*)(SearchCheckpoint*)> edits[] = {
      {"renamed weight",
       [](SearchCheckpoint* c) { c->parameters.back().first += "_renamed"; }},
      {"reshaped theta",
       [](SearchCheckpoint* c) {
         c->arch_parameters.back().second = Tensor::Zeros({1});
       }},
      {"reshaped theta moment",
       [](SearchCheckpoint* c) {
         c->theta_optimizer.first_moment.back() = Tensor::Zeros({1});
         c->theta_optimizer.second_moment.back() = Tensor::Zeros({1});
       }},
  };
  for (const auto& [what, edit] : edits) {
    SearchCheckpoint edited = written.value();
    edit(&edited);
    const SearchCheckpoint before = capture();
    EXPECT_EQ(restore(edited).code(), StatusCode::kInvalidArgument) << what;
    ExpectCheckpointsBitsEqual(capture(), before);

    ASSERT_TRUE(AtomicWriteFile(path, EncodeSearchCheckpoint(edited),
                                /*keep_previous=*/false)
                    .ok());
    SearchOptions resume_options = CheckpointedOptions(path);
    resume_options.resume = true;
    const SearchResult resumed = JointSearcher(resume_options).Search(data);
    EXPECT_EQ(resumed.genotype, fresh.genotype) << what;
    EXPECT_EQ(resumed.final_validation_loss, fresh.final_validation_loss)
        << what;
  }
  // The unedited checkpoint fits, so the refusals above are the edits'.
  EXPECT_TRUE(restore(written.value()).ok());
  RemoveGenerations(path);
}

// ---------------------------------------------------------------------------
// State-dict round-trips.
// ---------------------------------------------------------------------------

TEST(StateDictZoo, RoundTripsEveryBaselineBitIdentically) {
  const PreparedData data = TinyData();
  models::ModelContext context;
  context.num_nodes = data.num_nodes;
  context.in_features = data.in_features;
  context.input_length = data.window.input_length;
  context.output_length = data.window.output_length;
  context.hidden_dim = 8;
  context.adjacency = data.adjacency;

  Rng rng(17);
  const Tensor x = Tensor::Rand(
      {2, context.input_length, context.num_nodes, context.in_features}, &rng,
      -1.0, 1.0);

  for (const std::string& name : models::AllBaselineNames()) {
    SCOPED_TRACE(name);
    context.seed = 5;
    models::ForecastingModelPtr original = models::CreateBaseline(name, context);
    context.seed = 99;  // Different init: the load must overwrite all of it.
    models::ForecastingModelPtr reloaded = models::CreateBaseline(name, context);

    const std::string text = nn::SaveStateDict(*original);
    EXPECT_NE(text, nn::SaveStateDict(*reloaded));
    const Status status = nn::LoadStateDict(reloaded.get(), text);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(text, nn::SaveStateDict(*reloaded));

    original->SetTraining(false);
    reloaded->SetTraining(false);
    const Variable input(x, false);
    const Tensor out_a = original->Forward(input).value();
    const Tensor out_b = reloaded->Forward(input).value();
    ExpectTensorBitsEqual(out_a, out_b, name + " forward");
  }
}

// Regression for the old 17-significant-digit decimal writer: values like
// 0.1 and denormals must survive a save/load cycle bit-for-bit.
class ProbeModule : public nn::Module {
 public:
  explicit ProbeModule(const std::vector<double>& values)
      : weights_(RegisterParameter(
            "w", Tensor::FromVector({static_cast<int64_t>(values.size())},
                                    values))) {}
  Variable weights_;
};

TEST(StateDict, PathologicalDoublesRoundTripBitIdentically) {
  const std::vector<double> values = {
      0.1,
      1.0 / 3.0,
      -0.0,
      4.9406564584124654e-324,  // Smallest positive denormal.
      2.2250738585072014e-308,  // DBL_MIN.
      1e-310,                   // Subnormal range.
      1.7976931348623157e308,   // DBL_MAX.
      -123456.789,
      0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  ProbeModule original(values);
  const std::string text = nn::SaveStateDict(original);
  // The writer must use the exact hex-float form, not rounded decimals.
  EXPECT_NE(text.find("0x1."), std::string::npos);

  ProbeModule reloaded(std::vector<double>(values.size(), 0.0));
  const Status status = nn::LoadStateDict(&reloaded, text);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const Tensor& restored = reloaded.weights_.value();
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &values[i], sizeof(want));
    std::memcpy(&got, &restored.data()[i], sizeof(got));
    EXPECT_EQ(want, got) << "value " << values[i] << " at index " << i;
  }
}

TEST(StateDict, LoaderStillAcceptsLegacyDecimalFiles) {
  ProbeModule reloaded({0.0, 0.0});
  const Status status =
      nn::LoadStateDict(&reloaded, "param = w 1 2 0.25 -1.5\n");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reloaded.weights_.value().data()[0], 0.25);
  EXPECT_EQ(reloaded.weights_.value().data()[1], -1.5);
}

TEST(StateDict, LegacySeventeenDigitDecimalRecordLoadsExactly) {
  // The form the decimal writer produced: 17 significant digits, with the
  // inf/nan spellings of iostream.
  const std::vector<double> values = {
      0.1, 1.0 / 3.0, 4.9406564584124654e-324, 1.7976931348623157e308,
      -std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::quiet_NaN()};
  ProbeModule reloaded(std::vector<double>(values.size(), 0.0));
  const Status status = nn::LoadStateDict(
      &reloaded,
      "param = w 1 6 0.10000000000000001 0.33333333333333331 "
      "4.9406564584124654e-324 1.7976931348623157e+308 -inf -nan\n");
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &values[i], sizeof(want));
    std::memcpy(&got, &reloaded.weights_.value().data()[i], sizeof(got));
    EXPECT_EQ(want, got) << "index " << i;
  }
}

TEST(StateDict, MalformedValueTokensAreInvalidArgument) {
  for (const char* token :
       {"1e", "0x", "0x-1p0", "1.5junk", "-0x-1p0", "0xinf", "+0x1p0", "--1",
        "1e999"}) {
    ProbeModule reloaded({0.0});
    const Status status = nn::LoadStateDict(
        &reloaded, std::string("param = w 1 1 ") + token + "\n");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << token;
    EXPECT_EQ(reloaded.weights_.value().data()[0], 0.0) << token;
  }
}

}  // namespace
}  // namespace autocts
