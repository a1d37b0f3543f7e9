// A loaded model ready to answer forecast requests: a DerivedModel rebuilt
// from a ModelArtifact and run in eval mode under a NoGradScope
// (autograd/variable.h), so a forecast records no autograd tape. A session
// is stateless between calls: every request carries its full raw window,
// and nothing it allocates at creation is sized by the window length.
//
// Determinism contract (enforced by tests/serve_test.cc):
//   - The model stays in eval mode for the session's lifetime; every
//     forward CHECKs this. Eval mode is what makes forecasts reproducible:
//     Dropout consumes no RNG and BatchNorm normalizes with its running
//     statistics instead of batch statistics, so
//   - PredictBatch over K windows is bit-identical, row for row, to K
//     single-window Predict calls (every kernel in the forward path
//     accumulates per output element in an order independent of the batch
//     extent), and repeated identical calls return identical bits.
//
// Sessions are not thread-safe; the ForecastServer gives each worker its
// own session (model replica).
#ifndef AUTOCTS_SERVE_INFERENCE_SESSION_H_
#define AUTOCTS_SERVE_INFERENCE_SESSION_H_

#include <memory>

#include "serve/model_artifact.h"

namespace autocts::serve {

class InferenceSession {
 public:
  // Rebuilds the model from the artifact (eval mode); fails when the state
  // dict does not match the genotype's architecture.
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const ModelArtifact& artifact);

  const ArtifactMeta& meta() const { return meta_; }
  const core::DerivedModel& model() const { return *model_; }

  // InvalidArgument unless `window` is one raw window [P, N, F] of this
  // artifact's geometry. Predict runs this check; the ForecastServer runs
  // it before it batches a request.
  Status CheckWindow(const Tensor& window) const;

  // One-shot forecast: a raw (denormalized) window [P, N, F]
  // -> denormalized target forecast [Q, N].
  StatusOr<Tensor> Predict(const Tensor& window);

  // Batched forecast: raw windows [K, P, N, F] -> forecasts [K, Q, N].
  // Row k is bit-identical to Predict(windows[k]).
  StatusOr<Tensor> PredictBatch(const Tensor& windows);

 private:
  InferenceSession(const ModelArtifact& artifact,
                   std::unique_ptr<core::DerivedModel> model);

  ArtifactMeta meta_;
  data::StandardScaler scaler_;
  std::unique_ptr<core::DerivedModel> model_;
};

}  // namespace autocts::serve

#endif  // AUTOCTS_SERVE_INFERENCE_SESSION_H_
