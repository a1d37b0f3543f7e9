// Numerical-health guard layer: scan/monitor units, autograd numeric-trace
// attribution, and the fault-injection recovery harness for the trainer and
// the joint searcher (NaN and +-Inf corruption of gradients and weights at
// arbitrary batches, with and without recovery, at 1 and 4 threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable_ops.h"
#include "common/metrics_registry.h"
#include "common/numerics.h"
#include "common/parallel.h"
#include "common/text_codec.h"
#include "core/search_checkpoint.h"
#include "core/search_metrics.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

using core::JointSearcher;
using core::SearchOptions;
using core::SearchResult;
using models::PreparedData;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Tensor scans.
// ---------------------------------------------------------------------------

TEST(Numerics, IsFiniteValueClassifiesSpecials) {
  EXPECT_TRUE(numerics::IsFiniteValue(0.0));
  EXPECT_TRUE(numerics::IsFiniteValue(-1e300));
  EXPECT_TRUE(numerics::IsFiniteValue(5e-324));  // denormal
  EXPECT_FALSE(numerics::IsFiniteValue(kNaN));
  EXPECT_FALSE(numerics::IsFiniteValue(kInf));
  EXPECT_FALSE(numerics::IsFiniteValue(-kInf));
}

TEST(Numerics, CountNonFiniteIsExactAcrossThreadCounts) {
  Rng rng(5);
  Tensor big = Tensor::Rand({100'000}, &rng, -1.0, 1.0);
  big.data()[3] = kNaN;
  big.data()[50'000] = kInf;
  big.data()[99'999] = -kInf;
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(numerics::CountNonFinite(big), 3);
    EXPECT_FALSE(numerics::IsFinite(big));
    EXPECT_TRUE(numerics::IsFinite(Tensor::Zeros({1000})));
    EXPECT_EQ(numerics::CountNonFinite(Tensor()), 0);  // undefined tensor
  }
  SetNumThreads(1);
}

TEST(Numerics, FirstNonFiniteParameterAndGradient) {
  Variable a(Tensor::Zeros({3}), true);
  Variable b(Tensor::Zeros({3}), true);
  const std::vector<Variable> params = {a, b};
  EXPECT_EQ(numerics::FirstNonFiniteParameter(params), -1);
  EXPECT_EQ(numerics::FirstNonFiniteGradient(params), -1);

  b.AccumulateGrad(Tensor::Full({3}, kNaN));
  EXPECT_EQ(numerics::FirstNonFiniteGradient(params), 1);
  a.mutable_value().data()[0] = kInf;
  EXPECT_EQ(numerics::FirstNonFiniteParameter(params), 0);
}

// ---------------------------------------------------------------------------
// HealthMonitor.
// ---------------------------------------------------------------------------

TEST(HealthMonitor, FlagsNonFiniteLossImmediately) {
  numerics::HealthMonitor monitor;
  EXPECT_EQ(monitor.ObserveLoss(1.0), numerics::Anomaly::kNone);
  EXPECT_EQ(monitor.ObserveLoss(kNaN), numerics::Anomaly::kNonFiniteLoss);
  EXPECT_EQ(monitor.ObserveLoss(kInf), numerics::Anomaly::kNonFiniteLoss);
  EXPECT_EQ(monitor.anomalies_observed(), 2);
}

TEST(HealthMonitor, DetectsLossSpikeOnlyAfterWarmup) {
  numerics::HealthMonitor monitor;
  // Before kMinLossSamples healthy observations, no spike detection: the
  // very first loss can be huge without being an anomaly.
  EXPECT_EQ(monitor.ObserveLoss(1e9), numerics::Anomaly::kNone);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(monitor.ObserveLoss(1.0), numerics::Anomaly::kNone);
  }
  // Window mean is now ~2e8/5... feed more to settle near 1.0.
  for (int i = 0; i < 16; ++i) monitor.ObserveLoss(1.0);
  EXPECT_EQ(monitor.ObserveLoss(2.0), numerics::Anomaly::kNone);
  EXPECT_EQ(monitor.ObserveLoss(1e5), numerics::Anomaly::kLossSpike);
  // The spike itself must not poison the window.
  EXPECT_EQ(monitor.ObserveLoss(1.5), numerics::Anomaly::kNone);
  monitor.Reset();
  EXPECT_EQ(monitor.ObserveLoss(1e9), numerics::Anomaly::kNone);
}

TEST(HealthMonitor, FlagsGradientNormAnomalies) {
  numerics::HealthMonitor monitor;
  EXPECT_EQ(monitor.ObserveGradientNorm(5.0), numerics::Anomaly::kNone);
  EXPECT_EQ(monitor.ObserveGradientNorm(kNaN),
            numerics::Anomaly::kNonFiniteGradient);
  EXPECT_EQ(monitor.ObserveGradientNorm(kInf),
            numerics::Anomaly::kNonFiniteGradient);
  EXPECT_EQ(monitor.ObserveGradientNorm(2 * numerics::kMaxGradNorm),
            numerics::Anomaly::kGradientExplosion);
}

// ---------------------------------------------------------------------------
// Autograd numeric trace.
// ---------------------------------------------------------------------------

TEST(NumericTrace, NamesForwardOpProducingInf) {
  const Variable x(Tensor::Full({2}, 1000.0), true);
  BeginNumericTrace();
  const Variable y = ag::Exp(x);  // exp(1000) overflows to +Inf
  const NumericTraceReport report = EndNumericTrace();
  ASSERT_TRUE(report.triggered);
  EXPECT_EQ(report.op, "exp");
  EXPECT_FALSE(report.in_backward);
  EXPECT_NE(report.ToString().find("op 'exp'"), std::string::npos);
  (void)y;
}

TEST(NumericTrace, NamesBackwardOpProducingInf) {
  Variable x(Tensor::Zeros({2}), true);
  BeginNumericTrace();
  Variable loss = ag::SumAll(ag::Sqrt(x));  // d sqrt/dx at 0 = +Inf
  loss.Backward();
  const NumericTraceReport report = EndNumericTrace();
  ASSERT_TRUE(report.triggered);
  EXPECT_EQ(report.op, "sqrt");
  EXPECT_TRUE(report.in_backward);
}

TEST(NumericTrace, InactiveTraceReportsNothing) {
  const Variable x(Tensor::Full({2}, 1000.0), true);
  const Variable y = ag::Exp(x);
  BeginNumericTrace();
  const NumericTraceReport report = EndNumericTrace();
  EXPECT_FALSE(report.triggered);
  (void)y;
}

TEST(AttributeDivergence, NamesOpForPoisonedWeight) {
  Variable w(Tensor::Full({2}, kNaN), true);
  const std::string description = numerics::AttributeDivergence(
      [&] { return ag::SumAll(ag::Mul(w, w)); }, {{"layer.weight", w}});
  EXPECT_NE(description.find("first non-finite value produced by op 'mul'"),
            std::string::npos)
      << description;
}

TEST(AttributeDivergence, NamesParameterForLeafInjectedGradient) {
  Variable w(Tensor::Full({2}, 1.0), true);
  const std::string description = numerics::AttributeDivergence(
      [&] { return ag::SumAll(ag::Mul(w, w)); }, {{"layer.weight", w}},
      // Injected after the backward pass: no tape op produced it.
      [&] {
        Tensor grad = w.grad();
        grad.data()[0] = kNaN;
      });
  EXPECT_NE(description.find("layer.weight"), std::string::npos);
  EXPECT_NE(description.find("injected outside the autograd tape"),
            std::string::npos)
      << description;
}

// ---------------------------------------------------------------------------
// ClipGradNormChecked regressions: NaN > max_norm is false, so an unchecked
// clip would pass non-finite gradients through untouched — and an Inf norm
// would scale them all to NaN.
// ---------------------------------------------------------------------------

TEST(ClipGradNormChecked, RefusesNonFiniteNormAndLeavesGradsUntouched) {
  Variable w(Tensor::Zeros({3}), true);
  w.AccumulateGrad(Tensor::FromVector({3}, {1.0, kNaN, 2.0}));
  double norm = 0.0;
  EXPECT_FALSE(optim::ClipGradNormChecked({w}, 1.0, &norm));
  EXPECT_TRUE(std::isnan(norm));
  EXPECT_EQ(w.grad().data()[0], 1.0);  // untouched, not rescaled to NaN
  EXPECT_EQ(w.grad().data()[2], 2.0);

  Variable v(Tensor::Zeros({2}), true);
  v.AccumulateGrad(Tensor::FromVector({2}, {kInf, 1.0}));
  EXPECT_FALSE(optim::ClipGradNormChecked({v}, 1.0, &norm));
  EXPECT_TRUE(std::isinf(norm));
  // The old behaviour scaled by max_norm/Inf == 0, turning the finite
  // entry into 0 and the Inf entry into NaN.
  EXPECT_EQ(v.grad().data()[1], 1.0);
}

TEST(ClipGradNormChecked, ClipsFiniteNormsAsBefore) {
  Variable w(Tensor::Zeros({2}), true);
  w.AccumulateGrad(Tensor::FromVector({2}, {3.0, 4.0}));  // norm 5
  double norm = 0.0;
  EXPECT_TRUE(optim::ClipGradNormChecked({w}, 1.0, &norm));
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(w.grad().data()[0], 0.6, 1e-9);
  EXPECT_NEAR(w.grad().data()[1], 0.8, 1e-9);
  // Below the threshold the norm is reported and the gradients kept.
  Variable v(Tensor::Zeros({2}), true);
  v.AccumulateGrad(Tensor::FromVector({2}, {3.0, 4.0}));
  EXPECT_TRUE(optim::ClipGradNormChecked({v}, 10.0, &norm));
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_EQ(v.grad().data()[0], 3.0);
}

// ---------------------------------------------------------------------------
// Checkpoint health gate.
// ---------------------------------------------------------------------------

TEST(CheckpointNumericHealth, NamesFirstNonFiniteField) {
  core::SearchCheckpoint checkpoint;
  EXPECT_TRUE(core::CheckpointNumericHealth(checkpoint).ok());

  checkpoint.parameters.emplace_back("block.w", Tensor::Zeros({2}));
  checkpoint.arch_parameters.emplace_back("cell0.alpha", Tensor::Zeros({2}));
  EXPECT_TRUE(core::CheckpointNumericHealth(checkpoint).ok());

  checkpoint.parameters[0].second.data()[1] = kNaN;
  const Status bad_param = core::CheckpointNumericHealth(checkpoint);
  EXPECT_FALSE(bad_param.ok());
  EXPECT_NE(bad_param.ToString().find("block.w"), std::string::npos);
  checkpoint.parameters[0].second.data()[1] = 0.0;

  checkpoint.tau = kInf;
  EXPECT_FALSE(core::CheckpointNumericHealth(checkpoint).ok());
  checkpoint.tau = 1.0;

  checkpoint.weight_optimizer.second_moment.push_back(Tensor::Full({2}, kInf));
  const Status bad_moment = core::CheckpointNumericHealth(checkpoint);
  EXPECT_FALSE(bad_moment.ok());
  EXPECT_NE(bad_moment.ToString().find("second moment"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trainer fault injection.
// ---------------------------------------------------------------------------

PreparedData TrainerData(uint64_t seed = 31) {
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

models::ForecastingModelPtr TrainerModel(const PreparedData& data) {
  return models::CreateBaseline("STGCN", models::MakeModelContext(data, 8, 11));
}

models::TrainConfig TrainerConfig() {
  models::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 16;
  config.max_batches_per_epoch = 4;
  return config;
}

// Corrupts the first parameter gradient (value `poison`) exactly once, at
// the given (epoch, batch).
std::function<void(int64_t, int64_t, models::ForecastingModel*)>
GradPoisonOnce(int64_t at_epoch, int64_t at_batch, double poison,
               bool* fired) {
  return [=](int64_t epoch, int64_t batch, models::ForecastingModel* model) {
    if (*fired || epoch != at_epoch || batch != at_batch) return;
    for (const Variable& parameter : model->Parameters()) {
      if (!parameter.has_grad()) continue;
      Tensor grad = parameter.grad();
      grad.data()[0] = poison;
      *fired = true;
      return;
    }
  };
}

TEST(TrainerRecovery, SkipsStepPoisonedByInjectedGradient) {
  for (const double poison : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE("poison=" + std::to_string(poison));
    const PreparedData data = TrainerData();
    models::ForecastingModelPtr model = TrainerModel(data);
    models::TrainConfig config = TrainerConfig();
    config.recovery.enabled = true;
    bool fired = false;
    config.fault_injection_hook = GradPoisonOnce(0, 1, poison, &fired);
    const StatusOr<models::EvalResult> result =
        models::TrainAndEvaluateWithStatus(model.get(), data, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(fired);
    EXPECT_EQ(result.value().skipped_steps, 1);
    EXPECT_EQ(result.value().recoveries, 0);
    EXPECT_NE(result.value().last_anomaly.find("non-finite gradient"),
              std::string::npos);
    EXPECT_TRUE(std::isfinite(result.value().final_train_loss));
    EXPECT_EQ(result.value().epochs_run, config.epochs);
  }
}

TEST(TrainerRecovery, RollsBackWhenWeightIsPoisoned) {
  const PreparedData data = TrainerData();
  models::ForecastingModelPtr model = TrainerModel(data);
  models::TrainConfig config = TrainerConfig();
  config.recovery.enabled = true;
  bool fired = false;
  config.fault_injection_hook = [&](int64_t epoch, int64_t batch,
                                    models::ForecastingModel* m) {
    if (fired || epoch != 1 || batch != 0) return;
    m->Parameters()[0].mutable_value().data()[0] = kNaN;
    fired = true;
  };
  const StatusOr<models::EvalResult> result =
      models::TrainAndEvaluateWithStatus(model.get(), data, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(fired);
  EXPECT_EQ(result.value().recoveries, 1);
  EXPECT_NE(result.value().last_anomaly.find("non-finite parameter"),
            std::string::npos);
  EXPECT_TRUE(std::isfinite(result.value().final_train_loss));
  // The retried epoch still counts exactly once.
  EXPECT_EQ(result.value().epochs_run, config.epochs);
  // The model that comes out the other side is clean.
  EXPECT_EQ(numerics::FirstNonFiniteParameter(model->Parameters()), -1);
}

TEST(TrainerRecovery, DisabledRecoveryReturnsStatusNotAbort) {
  const PreparedData data = TrainerData();
  models::ForecastingModelPtr model = TrainerModel(data);
  models::TrainConfig config = TrainerConfig();
  bool fired = false;
  // No fire-once guard: the attribution pass replays the fault-injection
  // hook on the re-run of the failing batch, and the corruption must
  // reappear there for the leaf scan to name it.
  config.fault_injection_hook = [&](int64_t epoch, int64_t batch,
                                    models::ForecastingModel* m) {
    if (epoch != 0 || batch != 1) return;
    for (const Variable& parameter : m->Parameters()) {
      if (!parameter.has_grad()) continue;
      Tensor grad = parameter.grad();
      grad.data()[0] = kNaN;
      fired = true;
      return;
    }
  };
  const StatusOr<models::EvalResult> result =
      models::TrainAndEvaluateWithStatus(model.get(), data, config);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(fired);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("non-finite gradient"), std::string::npos) << message;
  // The corruption never went through an op, so attribution names the leaf.
  EXPECT_NE(message.find("injected outside the autograd tape"),
            std::string::npos)
      << message;
}

TEST(Trainer, ZeroBatchesReportsNaNTrainLossNotZero) {
  PreparedData data = TrainerData();
  // Too few steps for even one training window: EpochBatches yields nothing.
  data.splits[0] = data::WindowDataset(
      Tensor::Zeros({4, data.num_nodes, data.in_features}), data.window);
  ASSERT_EQ(data.train().NumSamples(), 0);
  models::ForecastingModelPtr model = TrainerModel(data);
  models::TrainConfig config = TrainerConfig();
  config.epochs = 1;
  const StatusOr<models::EvalResult> result =
      models::TrainAndEvaluateWithStatus(model.get(), data, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // A 0.0 here used to masquerade as a perfect fit.
  EXPECT_TRUE(std::isnan(result.value().final_train_loss));
}

TEST(Trainer, NonFiniteValidationLossCountsTowardPatience) {
  PreparedData data = TrainerData();
  // A poisoned validation split (NaN propagates through the forward pass
  // and cannot cancel against the output head's persistence highway) makes
  // every validation loss non-finite while training itself stays healthy.
  data.splits[1] = data::WindowDataset(
      Tensor::Full({20, data.num_nodes, data.in_features}, kNaN),
      data.window);
  models::ForecastingModelPtr model = TrainerModel(data);
  models::TrainConfig config = TrainerConfig();
  config.epochs = 4;
  config.early_stop_patience = 2;
  const StatusOr<models::EvalResult> result =
      models::TrainAndEvaluateWithStatus(model.get(), data, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every epoch's validation loss is non-finite: never an improvement, so
  // the run stops after `patience` epochs instead of comparing NaN.
  EXPECT_EQ(result.value().epochs_run, 2);
  EXPECT_NE(result.value().last_anomaly.find("non-finite validation loss"),
            std::string::npos);
}

TEST(TrainerRecovery, NonFiniteValidationLossExhaustsRecoveryBudget) {
  PreparedData data = TrainerData();
  data.splits[1] = data::WindowDataset(
      Tensor::Full({20, data.num_nodes, data.in_features}, kNaN),
      data.window);
  models::ForecastingModelPtr model = TrainerModel(data);
  models::TrainConfig config = TrainerConfig();
  config.epochs = 2;
  config.early_stop_patience = 1;
  config.recovery.enabled = true;
  config.recovery.max_recoveries = 1;
  const StatusOr<models::EvalResult> result =
      models::TrainAndEvaluateWithStatus(model.get(), data, config);
  // Rollback + LR backoff cannot fix poisoned validation data; the bounded
  // retry budget turns this into a structured failure, not a hang or abort.
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("recovery budget exhausted"),
            std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Searcher fault injection (the acceptance scenario): corrupt a supernet
// gradient or weight at an arbitrary batch, at 1 and 4 threads.
// ---------------------------------------------------------------------------

SearchOptions SearchOptionsForTest() {
  SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.epochs = 2;
  options.batch_size = 8;
  options.max_batches_per_epoch = 4;
  return options;
}

TEST(SearcherRecovery, RecoversFromInjectedGradientCorruption) {
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    for (const double poison : {kNaN, kInf, -kInf}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " poison=" + std::to_string(poison));
      const PreparedData data = TrainerData();
      SearchOptions options = SearchOptionsForTest();
      options.recovery.enabled = true;
      bool fired = false;
      options.fault_injection_hook = [&](int64_t epoch, int64_t step,
                                         core::Supernet* supernet) {
        if (fired || epoch != 0 || step != 2) return;
        for (const Variable& parameter : supernet->Parameters()) {
          if (!parameter.has_grad()) continue;
          Tensor grad = parameter.grad();
          grad.data()[0] = poison;
          fired = true;
          return;
        }
      };
      const StatusOr<SearchResult> result =
          JointSearcher(options).SearchWithStatus(data);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(fired);
      EXPECT_EQ(result.value().skipped_steps, 1);
      EXPECT_NE(result.value().last_anomaly.find("non-finite gradient"),
                std::string::npos);
      EXPECT_TRUE(result.value().genotype.Validate().ok());
      EXPECT_TRUE(std::isfinite(result.value().final_validation_loss));
      EXPECT_GT(result.value().final_validation_loss, 0.0);
    }
  }
  SetNumThreads(1);
}

TEST(SearcherRecovery, RollsBackFromInjectedWeightCorruption) {
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PreparedData data = TrainerData();
    SearchOptions options = SearchOptionsForTest();
    options.recovery.enabled = true;
    options.recovery.snapshot_every_n_batches = 2;
    bool fired = false;
    options.fault_injection_hook = [&](int64_t epoch, int64_t step,
                                       core::Supernet* supernet) {
      if (fired || epoch != 1 || step != 1) return;
      supernet->Parameters()[0].mutable_value().data()[0] = kInf;
      fired = true;
    };
    const StatusOr<SearchResult> result =
        JointSearcher(options).SearchWithStatus(data);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(fired);
    EXPECT_EQ(result.value().recoveries, 1);
    EXPECT_NE(result.value().last_anomaly.find("non-finite parameter"),
              std::string::npos);
    EXPECT_TRUE(result.value().genotype.Validate().ok());
    EXPECT_TRUE(std::isfinite(result.value().final_validation_loss));
    EXPECT_GT(result.value().final_validation_loss, 0.0);
  }
  SetNumThreads(1);
}

TEST(SearcherRecovery, DisabledRecoveryNamesOffendingOpForWeightCorruption) {
  const PreparedData data = TrainerData();
  SearchOptions options = SearchOptionsForTest();
  bool fired = false;
  options.fault_injection_hook = [&](int64_t epoch, int64_t step,
                                     core::Supernet* supernet) {
    if (fired || epoch != 0 || step != 1) return;
    supernet->Parameters()[0].mutable_value().data()[0] = kNaN;
    fired = true;
  };
  const StatusOr<SearchResult> result =
      JointSearcher(options).SearchWithStatus(data);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(fired);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("non-finite parameter"), std::string::npos)
      << message;
  // The poisoned weight reproduces under the numeric trace: the first op
  // consuming it is named with its tape position.
  EXPECT_NE(message.find("first non-finite value produced by op '"),
            std::string::npos)
      << message;
}

TEST(SearcherRecovery, DisabledRecoveryNamesParameterForGradientCorruption) {
  const PreparedData data = TrainerData();
  SearchOptions options = SearchOptionsForTest();
  bool fired = false;
  // No fire-once guard: the attribution replay re-invokes the hook on the
  // re-run of the failing step so the leaf scan can see the corruption.
  options.fault_injection_hook = [&](int64_t epoch, int64_t step,
                                     core::Supernet* supernet) {
    if (epoch != 0 || step != 2) return;
    for (const Variable& parameter : supernet->Parameters()) {
      if (!parameter.has_grad()) continue;
      Tensor grad = parameter.grad();
      grad.data()[0] = kNaN;
      fired = true;
      return;
    }
  };
  const StatusOr<SearchResult> result =
      JointSearcher(options).SearchWithStatus(data);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(fired);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("non-finite gradient"), std::string::npos) << message;
  EXPECT_NE(message.find("injected outside the autograd tape"),
            std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// Pinned recovered trajectories. The cases above check counts and
// finiteness; these pin what a recovered run computes, as exact hex
// images, so a change to the shared recovery policy (skip streak, rollback
// budget, learning-rate backoff, monitor reset) that moves one bit of the
// trajectory fails here. Results are bit-identical at 1 and 4 tensor
// threads, so both thread counts share one pin.
// ---------------------------------------------------------------------------

// A hook that corrupts the first parameter gradient (the trainer) or
// supernet weight gradient (the searcher) at each listed (epoch, batch),
// once per position, so the rolled-back retry of the same epoch runs clean.
class GradPoisonAt {
 public:
  explicit GradPoisonAt(std::vector<std::pair<int64_t, int64_t>> positions)
      : positions_(std::move(positions)) {}

  void operator()(int64_t epoch, int64_t batch,
                  const std::vector<Variable>& parameters) {
    const auto it = std::find(positions_.begin(), positions_.end(),
                              std::make_pair(epoch, batch));
    if (it == positions_.end()) return;
    positions_.erase(it);
    for (const Variable& parameter : parameters) {
      if (!parameter.has_grad()) continue;
      Tensor grad = parameter.grad();
      grad.data()[0] = kNaN;
      return;
    }
  }

  bool all_fired() const { return positions_.empty(); }

 private:
  std::vector<std::pair<int64_t, int64_t>> positions_;
};

struct TrainerPin {
  int64_t recoveries;
  int64_t skipped_steps;
  std::string last_anomaly;
  std::string mae;
  std::string final_train_loss;
};

// Trains TrainerModel with recovery on, configured by `configure` (called
// for every run, so each run gets fresh hook state), at 1 and 4 tensor
// threads.
void ExpectTrainerPinned(
    const std::function<void(models::TrainConfig*)>& configure,
    const TrainerPin& pin) {
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PreparedData data = TrainerData();
    models::ForecastingModelPtr model = TrainerModel(data);
    models::TrainConfig config = TrainerConfig();
    config.recovery.enabled = true;
    configure(&config);
    const StatusOr<models::EvalResult> result =
        models::TrainAndEvaluateWithStatus(model.get(), data, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().recoveries, pin.recoveries);
    EXPECT_EQ(result.value().skipped_steps, pin.skipped_steps);
    EXPECT_EQ(result.value().last_anomaly, pin.last_anomaly);
    EXPECT_EQ(FormatExactDouble(result.value().average.mae), pin.mae);
    EXPECT_EQ(FormatExactDouble(result.value().final_train_loss),
              pin.final_train_loss);
    EXPECT_EQ(result.value().epochs_run, config.epochs);
  }
  SetNumThreads(1);
}

TEST(PinnedRecovery, TrainerSkipsThenRollsBack) {
  // One skip in a row is allowed. The skip at epoch 0 batch 2 survives (the
  // healthy batch 3 ends its streak); in epoch 1 the second poisoned
  // gradient in a row escalates to a rollback of the epoch.
  ExpectTrainerPinned(
      [](models::TrainConfig* config) {
        config->recovery.max_consecutive_skips = 1;
        auto poison = std::make_shared<GradPoisonAt>(
            std::vector<std::pair<int64_t, int64_t>>{
                {0, 2}, {1, 1}, {1, 2}});
        config->fault_injection_hook = [poison](int64_t epoch, int64_t batch,
                                                models::ForecastingModel* m) {
          (*poison)(epoch, batch, m->Parameters());
        };
      },
      {.recoveries = 1,
       .skipped_steps = 2,
       .last_anomaly = "STGCN epoch 1 batch 2: non-finite gradient",
       .mae = "0x1.b70cb74001008p+0",
       .final_train_loss = "0x1.0f0354478ab16p-2"});
}

TEST(PinnedRecovery, TrainerRollsBackPoisonedWeight) {
  ExpectTrainerPinned(
      [](models::TrainConfig* config) {
        auto fired = std::make_shared<bool>(false);
        config->fault_injection_hook = [fired](int64_t epoch, int64_t batch,
                                               models::ForecastingModel* m) {
          if (*fired || epoch != 1 || batch != 0) return;
          m->Parameters()[0].mutable_value().data()[0] = kNaN;
          *fired = true;
        };
      },
      {.recoveries = 1,
       .skipped_steps = 0,
       .last_anomaly = "STGCN epoch 1 batch 0: non-finite parameter",
       .mae = "0x1.b700109544e5ap+0",
       .final_train_loss = "0x1.0f00e861b68cp-2"});
}

struct SearcherPin {
  int64_t recoveries;
  int64_t skipped_steps;
  std::string last_anomaly;
  std::string final_validation_loss;
  std::string genotype;
};

// Searches with recovery on and a metrics registry attached (so the
// rollback also restores the registry), one skip in a row allowed, a
// snapshot every 2 healthy steps, and NaN weight gradients at epoch 0 step
// 1 and epoch 1 steps 1 and 2. The first skip survives; the second is
// rolled back with the third, which restores the mid-epoch snapshot taken
// after epoch 1 step 0.
void ExpectSearcherPinned(int64_t bilevel_order, const SearcherPin& pin) {
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PreparedData data = TrainerData();
    SearchOptions options = SearchOptionsForTest();
    options.bilevel_order = bilevel_order;
    options.recovery.enabled = true;
    options.recovery.max_consecutive_skips = 1;
    options.recovery.snapshot_every_n_batches = 2;
    obs::MetricsRegistry registry;
    options.metrics = &registry;
    GradPoisonAt poison({{0, 1}, {1, 1}, {1, 2}});
    options.fault_injection_hook = [&poison](int64_t epoch, int64_t step,
                                             core::Supernet* supernet) {
      poison(epoch, step, supernet->Parameters());
    };
    const StatusOr<SearchResult> result =
        JointSearcher(options).SearchWithStatus(data);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(poison.all_fired());
    EXPECT_EQ(result.value().recoveries, pin.recoveries);
    EXPECT_EQ(result.value().skipped_steps, pin.skipped_steps);
    EXPECT_EQ(result.value().last_anomaly, pin.last_anomaly);
    EXPECT_EQ(FormatExactDouble(result.value().final_validation_loss),
              pin.final_validation_loss);
    EXPECT_EQ(result.value().genotype.ToText(), pin.genotype);
    // The restored registry is resynced to the outcome counters.
    EXPECT_EQ(registry.GetCounter(core::kMetricRecoveries)->value(),
              pin.recoveries);
    EXPECT_EQ(registry.GetCounter(core::kMetricSkippedSteps)->value(),
              pin.skipped_steps);
  }
  SetNumThreads(1);
}

TEST(PinnedRecovery, SearcherSkipsThenRollsBackFirstOrder) {
  ExpectSearcherPinned(
      1, {.recoveries = 1,
          .skipped_steps = 2,
          .last_anomaly = "search epoch 1 step 2: non-finite gradient",
          .final_validation_loss = "0x1.1f1a6b373c41ep-2",
          .genotype = "nodes_per_block = 3\n"
                      "num_blocks = 2\n"
                      "block_input = 0\n"
                      "edge = 0 0 1 identity\n"
                      "edge = 0 1 2 dgcn\n"
                      "edge = 0 0 2 dgcn\n"
                      "block_input = 0\n"
                      "edge = 1 0 1 gdcc\n"
                      "edge = 1 1 2 dgcn\n"
                      "edge = 1 0 2 identity\n"});
}

TEST(PinnedRecovery, SearcherSkipsThenRollsBackSecondOrder) {
  ExpectSearcherPinned(
      2, {.recoveries = 1,
          .skipped_steps = 2,
          .last_anomaly = "search epoch 1 step 2: non-finite gradient",
          .final_validation_loss = "0x1.1f151420fba46p-2",
          .genotype = "nodes_per_block = 3\n"
                      "num_blocks = 2\n"
                      "block_input = 0\n"
                      "edge = 0 0 1 identity\n"
                      "edge = 0 1 2 inf_t\n"
                      "edge = 0 0 2 dgcn\n"
                      "block_input = 0\n"
                      "edge = 1 0 1 gdcc\n"
                      "edge = 1 1 2 dgcn\n"
                      "edge = 1 0 2 identity\n"});
}

TEST(SearcherRecovery, HealthyRunsAreUnaffectedByEnablingRecovery) {
  const PreparedData data = TrainerData();
  SearchOptions options = SearchOptionsForTest();
  options.seed = 77;
  const SearchResult plain = JointSearcher(options).Search(data);
  options.recovery.enabled = true;
  const SearchResult guarded = JointSearcher(options).Search(data);
  // Monitoring is passive: with no anomalies, recovery must not perturb the
  // trajectory at all.
  EXPECT_EQ(plain.genotype, guarded.genotype);
  EXPECT_EQ(plain.final_validation_loss, guarded.final_validation_loss);
  EXPECT_EQ(guarded.recoveries, 0);
  EXPECT_EQ(guarded.skipped_steps, 0);
  EXPECT_TRUE(guarded.last_anomaly.empty());
}

}  // namespace
}  // namespace autocts
