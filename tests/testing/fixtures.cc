#include "testing/fixtures.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/buffer_pool.h"
#include "core/evaluator.h"
#include "data/synthetic/generators.h"

namespace autocts::fixtures {

models::PreparedData TinyPreparedData(uint64_t seed) {
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

core::Genotype MakeCandidateGenotype(int64_t variant) {
  const std::vector<std::string> ops = {"identity", "gdcc", "inf_s", "dgcn",
                                        "inf_t"};
  const auto op = [&](int64_t i) {
    return ops[(variant + i) % static_cast<int64_t>(ops.size())];
  };
  core::Genotype genotype;
  genotype.nodes_per_block = 3;
  for (int64_t b = 0; b < 2; ++b) {
    core::BlockGenotype block;
    block.edges.push_back({0, 1, op(b)});
    block.edges.push_back({1, 2, op(b + 1)});
    block.edges.push_back({0, 2, op(b + 2)});
    genotype.blocks.push_back(block);
  }
  genotype.block_inputs = {0, 1};
  AUTOCTS_CHECK(genotype.Validate().ok());
  return genotype;
}

std::vector<core::Genotype> MakeCandidateGenotypes(int64_t count) {
  std::vector<core::Genotype> candidates;
  for (int64_t i = 0; i < count; ++i) {
    candidates.push_back(MakeCandidateGenotype(i));
  }
  return candidates;
}

const ServingModel& TrainedServingModel() {
  static const ServingModel* serving = [] {
    auto* f = new ServingModel{TinyPreparedData(53), nullptr, {}};
    models::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 8;
    config.max_batches_per_epoch = 2;
    config.seed = 11;
    constexpr int64_t kHiddenDim = 8;
    StatusOr<core::TrainedGenotype> trained = core::TrainGenotypeWithStatus(
        MakeCandidateGenotype(2), f->data, kHiddenDim, config);
    AUTOCTS_CHECK(trained.ok()) << trained.status().ToString();
    f->model = std::move(trained.value().model);
    f->artifact =
        serve::MakeModelArtifact(*f->model, f->data, kHiddenDim, config.seed);
    return f;
  }();
  return *serving;
}

std::vector<Tensor> RawWindows(int64_t count, uint64_t seed) {
  const serve::ArtifactMeta& meta = TrainedServingModel().artifact.meta;
  data::TrafficSpeedConfig config;
  config.num_nodes = meta.num_nodes;
  config.num_steps = meta.input_length + count + 8;
  config.seed = seed;
  const data::CtsDataset dataset = data::GenerateTrafficSpeed(config);
  AUTOCTS_CHECK_EQ(dataset.num_features(), meta.in_features);
  std::vector<Tensor> windows;
  windows.reserve(count);
  for (int64_t w = 0; w < count; ++w) {
    Tensor window({meta.input_length, meta.num_nodes, meta.in_features});
    for (int64_t p = 0; p < meta.input_length; ++p) {
      for (int64_t n = 0; n < meta.num_nodes; ++n) {
        for (int64_t f = 0; f < meta.in_features; ++f) {
          window.At({p, n, f}) = dataset.values.At({w + p, n, f});
        }
      }
    }
    windows.push_back(std::move(window));
  }
  return windows;
}

void ExpectBitsEqual(const Tensor& a, const Tensor& b,
                     const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(double)),
            0)
      << label;
}

core::SearchCheckpoint SyntheticSearchCheckpoint() {
  core::SearchCheckpoint checkpoint;
  checkpoint.config_fingerprint = "synthetic fingerprint v1";
  checkpoint.epoch = 1;
  checkpoint.step = 2;
  checkpoint.tau = 4.5;
  checkpoint.val_loss_sum = 0.1;
  checkpoint.epoch_steps = 2;
  checkpoint.final_validation_loss = 1.0 / 3.0;
  Rng rng(7);
  (void)rng.Normal();  // Populate the cached Box-Muller half.
  checkpoint.rng = rng.GetState();
  checkpoint.pseudo_train = {3, 1, 2};
  checkpoint.pseudo_val = {0, 4};
  checkpoint.parameters.emplace_back(
      "layer.w", Tensor::FromVector({2, 2}, {0.1, -2.5, 4.9406564584124654e-324,
                                             3.0}));
  checkpoint.parameters.emplace_back(
      "layer.b", Tensor::FromVector({2}, {-0.0, 1e308}));
  checkpoint.arch_parameters.emplace_back(
      "cell0.alpha", Tensor::FromVector({3}, {0.25, 1.0 / 3.0, -0.1}));
  checkpoint.weight_optimizer.step_count = 5;
  checkpoint.weight_optimizer.first_moment = {
      Tensor::FromVector({2, 2}, {1e-9, -0.3, 0.0, 2.0}), Tensor()};
  checkpoint.weight_optimizer.second_moment = {
      Tensor::FromVector({2, 2}, {1e-18, 0.09, 0.0, 4.0}), Tensor()};
  checkpoint.theta_optimizer.step_count = 4;
  checkpoint.theta_optimizer.first_moment = {
      Tensor::FromVector({3}, {0.5, -0.25, 0.125})};
  checkpoint.theta_optimizer.second_moment = {
      Tensor::FromVector({3}, {0.25, 0.0625, 1.0 / 64.0})};
  return checkpoint;
}

core::EvalCheckpoint SampleEvalCheckpoint() {
  core::EvalCheckpoint checkpoint;
  checkpoint.config_fingerprint = "v1 sample=fingerprint lr=0x1p-10";
  checkpoint.candidate_count = 4;
  models::EvalResult first;
  first.average = {1.5, 2.25, 0.125};
  first.per_horizon = {{1.0, 2.0, 0.0625}, {0.1, 0.2, 0.3}};
  first.rrse = 0.75;
  first.corr = 0.5;
  first.final_train_loss = 0.1;
  first.train_seconds_per_epoch = 3.5;
  first.inference_ms_per_window = 0.25;
  first.parameter_count = 1234;
  first.epochs_run = 2;
  models::EvalResult second;
  // No batch ever ran.
  second.final_train_loss = std::numeric_limits<double>::quiet_NaN();
  second.recoveries = 1;
  second.skipped_steps = 3;
  second.last_anomaly = "non-finite gradient in op 'gdcc'";
  checkpoint.completed = {{0, first}, {2, second}};
  checkpoint.failed = {{3, "anomaly: non-finite loss (loss=nan)"}};
  return checkpoint;
}

serve::ModelArtifact CompactArtifact() {
  serve::ModelArtifact artifact;
  artifact.meta.num_nodes = 3;
  artifact.meta.in_features = 2;
  artifact.meta.input_length = 4;
  artifact.meta.output_length = 2;
  artifact.meta.horizon = 0;
  artifact.meta.target_feature = 0;
  artifact.meta.hidden_dim = 4;
  artifact.meta.seed = 17;
  artifact.meta.zero_is_missing = true;
  artifact.genotype = MakeCandidateGenotype(0);
  artifact.scaler.mask_null = true;
  artifact.scaler.null_value = 0.0;
  artifact.scaler.means = {1.5, -2.25};
  artifact.scaler.stddevs = {0.5, 3.0};
  // Zero weights whose shapes fit the geometry (2 features, hidden 4,
  // Q = 2), so the artifact decodes; they do not make up the genotype's
  // architecture, so no model is built from it.
  artifact.state.params = {{"embedding.weight", Tensor::Zeros({2, 4})},
                           {"head.fc2.weight", Tensor::Zeros({8, 2})}};
  artifact.adjacency = Tensor::Ones({3, 3});
  return artifact;
}

namespace {

double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with(key)) {
      return std::strtod(line.c_str() + std::strlen(key), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

Footprint MeasureFootprint(const std::function<void()>& fn) {
  BufferPool& pool = BufferPool::Global();
  const bool was_enabled = pool.enabled();
  pool.SetEnabled(true);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the resident high-water mark
  clear_refs.close();
  const double rss_before = ProcStatusMb("VmRSS:");
  const int64_t bypass_before = pool.Stats().bypass;
  fn();
  Footprint footprint;
  footprint.unpooled_blocks = pool.Stats().bypass - bypass_before;
  if (!clear_refs.fail()) {
    footprint.peak_rss_growth_mb = ProcStatusMb("VmHWM:") - rss_before;
  }
  pool.SetEnabled(was_enabled);
  return footprint;
}

std::string TempPath(const std::string& prefix, const std::string& name) {
  return ::testing::TempDir() + prefix + "_" + name;
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace autocts::fixtures
