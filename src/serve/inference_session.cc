#include "serve/inference_session.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "autograd/variable.h"
#include "common/trace.h"

namespace autocts::serve {

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::Create(
    const ModelArtifact& artifact) {
  StatusOr<std::unique_ptr<core::DerivedModel>> model =
      BuildModelFromArtifact(artifact);
  if (!model.ok()) return model.status();
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(artifact, std::move(model).value()));
}

InferenceSession::InferenceSession(const ModelArtifact& artifact,
                                   std::unique_ptr<core::DerivedModel> model)
    : meta_(artifact.meta),
      scaler_(data::StandardScaler::FromState(artifact.scaler)),
      model_(std::move(model)),
      ring_(Tensor::Zeros(
          {artifact.meta.input_length, artifact.meta.num_nodes,
           artifact.meta.in_features})) {}

StatusOr<Tensor> InferenceSession::Predict(const Tensor& window) {
  if (window.ndim() != 3 || window.dim(0) != meta_.input_length ||
      window.dim(1) != meta_.num_nodes ||
      window.dim(2) != meta_.in_features) {
    return Status::InvalidArgument(
        "window shape " + ShapeToString(window.shape()) + ", expected [" +
        std::to_string(meta_.input_length) + ", " +
        std::to_string(meta_.num_nodes) + ", " +
        std::to_string(meta_.in_features) + "]");
  }
  StatusOr<Tensor> batched = PredictBatch(window.Reshape(
      {1, meta_.input_length, meta_.num_nodes, meta_.in_features}));
  if (!batched.ok()) return batched.status();
  return batched.value().Reshape({meta_.output_length, meta_.num_nodes});
}

StatusOr<Tensor> InferenceSession::PredictBatch(const Tensor& windows) {
  if (windows.ndim() != 4 || windows.dim(0) < 1 ||
      windows.dim(1) != meta_.input_length ||
      windows.dim(2) != meta_.num_nodes ||
      windows.dim(3) != meta_.in_features) {
    return Status::InvalidArgument(
        "batch shape " + ShapeToString(windows.shape()) + ", expected [K, " +
        std::to_string(meta_.input_length) + ", " +
        std::to_string(meta_.num_nodes) + ", " +
        std::to_string(meta_.in_features) + "]");
  }
  // The eval-mode guarantee of the serving layer: a model accidentally left
  // in training mode would consume dropout RNG and normalize with batch
  // statistics, silently breaking both reproducibility and the
  // batched-vs-sequential bit-identity contract.
  AUTOCTS_CHECK(!model_->training())
      << "InferenceSession model must stay in eval mode";
  AUTOCTS_TRACE_SCOPE("serve/forward");
  const int64_t batch = windows.dim(0);
  const Tensor normalized = scaler_.Transform(windows);
  // No backward pass ever runs here, so the forward records no tape: each
  // intermediate is freed once its consumer is built, although the model
  // parameters require grad.
  const NoGradScope no_grad;
  const Variable x(normalized, /*requires_grad=*/false);
  const Tensor out = model_->Forward(x).value();  // [K, Q, N, 1]
  const Tensor denormalized =
      scaler_.InverseTransformFeature(out, meta_.target_feature);
  return denormalized.Reshape({batch, meta_.output_length, meta_.num_nodes});
}

void InferenceSession::Observe(const Tensor& tick) {
  AUTOCTS_CHECK(tick.ndim() == 2 && tick.dim(0) == meta_.num_nodes &&
                tick.dim(1) == meta_.in_features)
      << "tick shape " << ShapeToString(tick.shape());
  const int64_t row_size = meta_.num_nodes * meta_.in_features;
  std::memcpy(ring_.data() + ring_head_ * row_size, tick.data(),
              static_cast<size_t>(row_size) * sizeof(double));
  ring_head_ = (ring_head_ + 1) % meta_.input_length;
  ring_count_ = std::min(ring_count_ + 1, meta_.input_length);
  ++ticks_observed_;
}

Tensor InferenceSession::CurrentWindow() const {
  AUTOCTS_CHECK(Ready()) << "window not full: " << ring_count_ << " of "
                         << meta_.input_length << " ticks observed";
  Tensor window = Tensor::Uninitialized(
      {meta_.input_length, meta_.num_nodes, meta_.in_features});
  const int64_t row_size = meta_.num_nodes * meta_.in_features;
  for (int64_t i = 0; i < meta_.input_length; ++i) {
    const int64_t source = (ring_head_ + i) % meta_.input_length;
    std::memcpy(window.data() + i * row_size,
                ring_.data() + source * row_size,
                static_cast<size_t>(row_size) * sizeof(double));
  }
  return window;
}

StatusOr<Tensor> InferenceSession::PredictNext() {
  if (!Ready()) {
    return Status::InvalidArgument(
        "window not full: " + std::to_string(ring_count_) + " of " +
        std::to_string(meta_.input_length) + " ticks observed");
  }
  return Predict(CurrentWindow());
}

void InferenceSession::ResetWindow() {
  ring_head_ = 0;
  ring_count_ = 0;
}

}  // namespace autocts::serve
