// Architecture evaluation stage (Section 3.4): the derived architecture is
// retrained from scratch on the full training+validation data and reported
// on the test set.
#ifndef AUTOCTS_CORE_EVALUATOR_H_
#define AUTOCTS_CORE_EVALUATOR_H_

#include <memory>

#include "core/derived_model.h"
#include "models/trainer.h"

namespace autocts::core {

// Builds a fresh DerivedModel for `genotype` sized to `data`.
std::unique_ptr<DerivedModel> BuildDerivedModel(
    const Genotype& genotype, const models::PreparedData& data,
    int64_t hidden_dim, uint64_t seed);

// Trains the derived model from scratch and evaluates on the test split.
// CHECK-fails on an unrecovered numerical anomaly; callers that must
// survive divergence use the Status-returning variant below.
models::EvalResult EvaluateGenotype(const Genotype& genotype,
                                    const models::PreparedData& data,
                                    int64_t hidden_dim,
                                    const models::TrainConfig& config);

// Like EvaluateGenotype, but routes numerical anomalies through
// models::TrainAndEvaluateWithStatus instead of aborting.
StatusOr<models::EvalResult> EvaluateGenotypeWithStatus(
    const Genotype& genotype, const models::PreparedData& data,
    int64_t hidden_dim, const models::TrainConfig& config);

// A trained derived model together with its evaluation — what the serving
// layer exports into a ModelArtifact (EvaluateGenotype* discard the model).
struct TrainedGenotype {
  std::unique_ptr<DerivedModel> model;
  models::EvalResult eval;
};

// Trains like EvaluateGenotypeWithStatus but returns the trained model
// (in eval mode) alongside the metrics instead of discarding it.
StatusOr<TrainedGenotype> TrainGenotypeWithStatus(
    const Genotype& genotype, const models::PreparedData& data,
    int64_t hidden_dim, const models::TrainConfig& config);

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_EVALUATOR_H_
