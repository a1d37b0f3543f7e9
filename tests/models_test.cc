#include <gtest/gtest.h>

#include "data/synthetic/generators.h"
#include "graph/adjacency.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

using models::CreateBaseline;
using models::ModelContext;
using models::PreparedData;

ModelContext SmallContext(bool with_adjacency = true, int64_t q = 4) {
  ModelContext context;
  context.num_nodes = 5;
  context.in_features = 2;
  context.input_length = 8;
  context.output_length = q;
  context.hidden_dim = 8;
  context.seed = 11;
  if (with_adjacency) {
    Rng rng(3);
    const Tensor positions = graph::RandomPositions(5, &rng);
    context.adjacency = graph::DistanceGaussianAdjacency(positions, 0.5, 0.1);
  }
  return context;
}

// ---------------------------------------------------------------------------
// Every baseline honours the ForecastingModel contract.
// ---------------------------------------------------------------------------

class BaselineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineTest, OutputShapeWithPredefinedGraph) {
  const ModelContext context = SmallContext(true);
  models::ForecastingModelPtr model = CreateBaseline(GetParam(), context);
  Rng rng(1);
  Variable x(Tensor::Rand({3, 8, 5, 2}, &rng, -1.0, 1.0), false);
  EXPECT_EQ(model->Forward(x).shape(), (Shape{3, 4, 5, 1}));
}

TEST_P(BaselineTest, OutputShapeWithLearnedGraph) {
  const ModelContext context = SmallContext(false);
  models::ForecastingModelPtr model = CreateBaseline(GetParam(), context);
  Rng rng(2);
  Variable x(Tensor::Rand({2, 8, 5, 2}, &rng, -1.0, 1.0), false);
  EXPECT_EQ(model->Forward(x).shape(), (Shape{2, 4, 5, 1}));
}

TEST_P(BaselineTest, HasParametersAndGradientsEverywhere) {
  const ModelContext context = SmallContext(true);
  models::ForecastingModelPtr model = CreateBaseline(GetParam(), context);
  EXPECT_GT(model->NumParameters(), 50);
  Rng rng(4);
  Variable x(Tensor::Rand({2, 8, 5, 2}, &rng, -1.0, 1.0), false);
  Variable loss = ag::SumAll(ag::Mul(model->Forward(x), model->Forward(x)));
  loss.Backward();
  int64_t with_grad = 0;
  for (const auto& [name, parameter] : model->NamedParameters()) {
    if (parameter.has_grad()) ++with_grad;
  }
  // Every parameter participates (a dead branch would signal a wiring bug).
  EXPECT_EQ(with_grad,
            static_cast<int64_t>(model->NamedParameters().size()));
}

TEST_P(BaselineTest, DeterministicGivenSeedAtEval) {
  const ModelContext context = SmallContext(true);
  models::ForecastingModelPtr a = CreateBaseline(GetParam(), context);
  models::ForecastingModelPtr b = CreateBaseline(GetParam(), context);
  a->SetTraining(false);
  b->SetTraining(false);
  Rng rng(5);
  Variable x(Tensor::Rand({1, 8, 5, 2}, &rng, -1.0, 1.0), false);
  EXPECT_TRUE(a->Forward(x).value().AllClose(b->Forward(x).value(), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineTest,
                         ::testing::Values("DCRNN", "STGCN", "GraphWaveNet",
                                           "AGCRN", "LSTNet", "TPA-LSTM",
                                           "MTGNN"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ModelZoo, UnknownNameDies) {
  EXPECT_DEATH(CreateBaseline("AlexNet", SmallContext()), "");
}

// ---------------------------------------------------------------------------
// Trainer.
// ---------------------------------------------------------------------------

PreparedData SmallPreparedData() {
  data::TrafficSpeedConfig config;
  config.num_nodes = 5;
  config.num_steps = 400;
  config.seed = 21;
  data::WindowSpec window;
  window.input_length = 8;
  window.output_length = 4;
  return models::PrepareData(data::GenerateTrafficSpeed(config), window, 0.7,
                             0.1);
}

TEST(Trainer, PrepareDataNormalizesAndSplits) {
  const PreparedData prepared = SmallPreparedData();
  EXPECT_EQ(prepared.num_nodes, 5);
  EXPECT_EQ(prepared.in_features, 2);
  ASSERT_EQ(prepared.splits.size(), 3u);
  EXPECT_GT(prepared.train().NumSamples(), prepared.test().NumSamples());
  // Normalized speed has roughly zero mean (masked fit).
  EXPECT_GT(prepared.scaler.mean(0), 10.0);
  EXPECT_GT(prepared.scaler.stddev(0), 1.0);
}

TEST(Trainer, TrainingReducesLossAndReportsMetrics) {
  const PreparedData prepared = SmallPreparedData();
  ModelContext context = SmallContext(true);
  context.adjacency = prepared.adjacency;
  models::ForecastingModelPtr model = CreateBaseline("STGCN", context);

  // Loss of the untrained model on the validation split.
  const double before = models::EvaluateLoss(model.get(), prepared,
                                             prepared.validation(), 16);
  models::TrainConfig train_config;
  train_config.epochs = 3;
  train_config.batch_size = 16;
  train_config.max_batches_per_epoch = 12;
  const models::EvalResult result =
      models::TrainAndEvaluate(model.get(), prepared, train_config);
  const double after = models::EvaluateLoss(model.get(), prepared,
                                            prepared.validation(), 16);
  EXPECT_LT(after, before);
  EXPECT_GT(result.average.mae, 0.0);
  EXPECT_GE(result.average.rmse, result.average.mae);
  EXPECT_EQ(result.per_horizon.size(), 4u);
  EXPECT_GT(result.parameter_count, 0);
  EXPECT_GT(result.train_seconds_per_epoch, 0.0);
  EXPECT_GT(result.inference_ms_per_window, 0.0);
}

TEST(Trainer, PredictReturnsDenormalizedPairs) {
  const PreparedData prepared = SmallPreparedData();
  ModelContext context = SmallContext(true);
  context.adjacency = prepared.adjacency;
  models::ForecastingModelPtr model = CreateBaseline("GraphWaveNet", context);
  Tensor predictions, truths;
  models::Predict(model.get(), prepared, prepared.test(), 16, &predictions,
                  &truths);
  EXPECT_EQ(predictions.shape(), truths.shape());
  EXPECT_EQ(predictions.dim(0), prepared.test().NumSamples());
  // Denormalized truths live in the raw speed range, not z-scores.
  EXPECT_GT(MaxAll(truths), 20.0);
}

TEST(Trainer, BeatsNaiveMeanPredictorAfterTraining) {
  const PreparedData prepared = SmallPreparedData();
  ModelContext context = SmallContext(true);
  context.adjacency = prepared.adjacency;
  models::ForecastingModelPtr model = CreateBaseline("GraphWaveNet", context);
  models::TrainConfig train_config;
  train_config.epochs = 5;
  train_config.batch_size = 16;
  const models::EvalResult result =
      models::TrainAndEvaluate(model.get(), prepared, train_config);

  // Naive predictor: always forecast the training mean.
  Tensor predictions, truths;
  models::Predict(model.get(), prepared, prepared.test(), 16, &predictions,
                  &truths);
  const Tensor mean_prediction =
      Tensor::Full(truths.shape(), prepared.scaler.mean(0));
  const double naive_mae =
      metrics::ComputeMetrics(mean_prediction, truths).mae;
  EXPECT_LT(result.average.mae, naive_mae);
}

}  // namespace
}  // namespace autocts
