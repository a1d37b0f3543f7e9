#include "serve/inference_session.h"

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
      model_(std::move(model)) {}

Status InferenceSession::CheckWindow(const Tensor& window) const {
  if (window.ndim() != 3 || window.dim(0) != meta_.input_length ||
      window.dim(1) != meta_.num_nodes ||
      window.dim(2) != meta_.in_features) {
    return Status::InvalidArgument(
        "window shape " + ShapeToString(window.shape()) + ", expected [" +
        std::to_string(meta_.input_length) + ", " +
        std::to_string(meta_.num_nodes) + ", " +
        std::to_string(meta_.in_features) + "]");
  }
  return Status::Ok();
}

StatusOr<Tensor> InferenceSession::Predict(const Tensor& window) {
  const Status shape = CheckWindow(window);
  if (!shape.ok()) return shape;
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

}  // namespace autocts::serve
