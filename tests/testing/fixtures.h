// Shared builders for the crash-safety / scheduler / e2e / serving suites:
// one tiny-but-real synthetic dataset, hand-built candidate genotypes in
// the exact shape Derive() emits, the serving suites' trained model with
// its window and bit-compare helpers, a memory-footprint probe, and
// temp-file helpers that clean up every generation an atomic writer may
// leave behind (<path>, <path>.prev, <path>.tmp).
//
// Dataset seeds stay explicit at every call site on purpose: the suites
// were written against different datasets (checkpoint_test uses 31,
// eval_scheduler_test 47) and their bit-exactness baselines depend on it.
#ifndef AUTOCTS_TESTS_TESTING_FIXTURES_H_
#define AUTOCTS_TESTS_TESTING_FIXTURES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/derived_model.h"
#include "core/eval_scheduler.h"
#include "core/genotype.h"
#include "core/search_checkpoint.h"
#include "models/trainer.h"
#include "serve/model_artifact.h"

namespace autocts::fixtures {

// 4-node / 300-step synthetic traffic-speed dataset windowed to P=6, Q=3
// with a 70/10/20 split — small enough for sub-second training runs while
// still exercising normalization and the multi-step head.
models::PreparedData TinyPreparedData(uint64_t seed);

// A hand-built candidate in the exact shape Derive() emits for
// micro_nodes = 3 / edges_per_node = 2, with operator choices varied per
// variant so every candidate trains to a different result.
core::Genotype MakeCandidateGenotype(int64_t variant);
std::vector<core::Genotype> MakeCandidateGenotypes(int64_t count);

// The serving suites' model: MakeCandidateGenotype(2) trained for one
// epoch of 2 batches (batch 8, seed 11, hidden 8) on TinyPreparedData(53),
// and its exported artifact. Variant 2 holds the ProbSparse attention ops,
// the hardest to keep batch-decoupled. Trained once per process; callers
// only read it.
struct ServingModel {
  models::PreparedData data;
  std::unique_ptr<core::DerivedModel> model;
  serve::ModelArtifact artifact;
};
const ServingModel& TrainedServingModel();

// `count` distinct raw (denormalized) windows with the serving artifact's
// geometry, sliced stride-1 from a fresh synthetic series.
std::vector<Tensor> RawWindows(int64_t count, uint64_t seed = 99);

// Shapes equal and every double bit-identical (memcmp, no tolerance).
void ExpectBitsEqual(const Tensor& a, const Tensor& b,
                     const std::string& label);

// One small, complete instance of each sealed format: every record type is
// present, and each is small enough for exhaustive byte-level sweeps. Their
// encodings are pinned in tests/testdata/sealed_golden_v1/.
//   * a search checkpoint with pathological doubles (0.1, the smallest
//     denormal, -0.0, huge magnitudes) and a lazy (undefined) Adam slot;
//   * an eval checkpoint with a NaN train loss, an anomaly record and a
//     failure record;
//   * a model artifact whose state dict is two zero tensors that fit its
//     geometry (artifact decode checks the geometry against the state
//     dict's shapes; the build checks the architecture).
core::SearchCheckpoint SyntheticSearchCheckpoint();
core::EvalCheckpoint SampleEvalCheckpoint();
serve::ModelArtifact CompactArtifact();

// What a call acquired: unpooled tensor blocks (with the pool forced on,
// only a block above the largest bucket counts) and the growth of the
// resident high-water mark (-1 where /proc/self/clear_refs cannot reset
// the mark).
struct Footprint {
  int64_t unpooled_blocks = 0;
  double peak_rss_growth_mb = -1.0;
};
Footprint MeasureFootprint(const std::function<void()>& fn);

// "<gtest temp dir><prefix>_<name>".
std::string TempPath(const std::string& prefix, const std::string& name);

// Removes every generation an atomic writer may have left at `path`.
void RemoveGenerations(const std::string& path);

}  // namespace autocts::fixtures

#endif  // AUTOCTS_TESTS_TESTING_FIXTURES_H_
