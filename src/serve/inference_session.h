// A loaded model ready to answer forecast requests: a DerivedModel rebuilt
// from a ModelArtifact and run in eval mode under a NoGradScope
// (autograd/variable.h), so a forecast records no autograd tape, plus a
// per-session sliding input-window ring buffer so a steady-state client
// ships only the newest observation tick instead of the full window.
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

  // Stateless one-shot forecast: a raw (denormalized) window [P, N, F]
  // -> denormalized target forecast [Q, N].
  StatusOr<Tensor> Predict(const Tensor& window);

  // Batched forecast: raw windows [K, P, N, F] -> forecasts [K, Q, N].
  // Row k is bit-identical to Predict(windows[k]).
  StatusOr<Tensor> PredictBatch(const Tensor& windows);

  // Streaming interface: pushes the newest raw observation tick [N, F]
  // into the sliding window (the oldest tick falls out once full).
  void Observe(const Tensor& tick);
  // True once input_length ticks have been observed.
  bool Ready() const { return ring_count_ >= meta_.input_length; }
  int64_t ticks_observed() const { return ticks_observed_; }
  // The current window [P, N, F] in chronological order (requires Ready()).
  Tensor CurrentWindow() const;
  // Forecast from the current window (requires Ready()); bit-identical to
  // Predict(CurrentWindow()).
  StatusOr<Tensor> PredictNext();
  // Clears the sliding window (the model is untouched).
  void ResetWindow();

 private:
  InferenceSession(const ModelArtifact& artifact,
                   std::unique_ptr<core::DerivedModel> model);

  ArtifactMeta meta_;
  data::StandardScaler scaler_;
  std::unique_ptr<core::DerivedModel> model_;

  // Ring buffer of the last P raw ticks: row (ring_head_ + i) % P holds the
  // (i+1)-th oldest tick once full.
  Tensor ring_;  // [P, N, F]
  int64_t ring_head_ = 0;   // next write slot == oldest row when full
  int64_t ring_count_ = 0;
  int64_t ticks_observed_ = 0;
};

}  // namespace autocts::serve

#endif  // AUTOCTS_SERVE_INFERENCE_SESSION_H_
