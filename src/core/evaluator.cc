#include "core/evaluator.h"

namespace autocts::core {

std::unique_ptr<DerivedModel> BuildDerivedModel(
    const Genotype& genotype, const models::PreparedData& data,
    int64_t hidden_dim, uint64_t seed) {
  return std::make_unique<DerivedModel>(
      genotype, models::MakeModelContext(data, hidden_dim, seed));
}

models::EvalResult EvaluateGenotype(const Genotype& genotype,
                                    const models::PreparedData& data,
                                    int64_t hidden_dim,
                                    const models::TrainConfig& config) {
  std::unique_ptr<DerivedModel> model =
      BuildDerivedModel(genotype, data, hidden_dim, config.seed);
  return models::TrainAndEvaluate(model.get(), data, config);
}

StatusOr<models::EvalResult> EvaluateGenotypeWithStatus(
    const Genotype& genotype, const models::PreparedData& data,
    int64_t hidden_dim, const models::TrainConfig& config) {
  std::unique_ptr<DerivedModel> model =
      BuildDerivedModel(genotype, data, hidden_dim, config.seed);
  return models::TrainAndEvaluateWithStatus(model.get(), data, config);
}

StatusOr<TrainedGenotype> TrainGenotypeWithStatus(
    const Genotype& genotype, const models::PreparedData& data,
    int64_t hidden_dim, const models::TrainConfig& config) {
  TrainedGenotype result;
  result.model = BuildDerivedModel(genotype, data, hidden_dim, config.seed);
  StatusOr<models::EvalResult> eval =
      models::TrainAndEvaluateWithStatus(result.model.get(), data, config);
  if (!eval.ok()) return eval.status();
  result.eval = eval.value();
  result.model->SetTraining(false);
  return StatusOr<TrainedGenotype>(std::move(result));
}

}  // namespace autocts::core
