#include "optim/adam.h"

#include <cmath>

#include "common/trace.h"
#include "tensor/tensor_ops.h"

namespace autocts::optim {

Adam::Adam(std::vector<Variable> parameters, Options options)
    : parameters_(std::move(parameters)),
      options_(options),
      learning_rate_(options.learning_rate) {
  first_moment_.resize(parameters_.size());
  second_moment_.resize(parameters_.size());
}

void Adam::ZeroGrad() {
  AUTOCTS_TRACE_SCOPE("optim/zero_grad");
  for (Variable& parameter : parameters_) parameter.ClearGrad();
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step_count = step_count_;
  state.first_moment.reserve(first_moment_.size());
  state.second_moment.reserve(second_moment_.size());
  for (const Tensor& m : first_moment_) {
    state.first_moment.push_back(m.defined() ? m.Clone() : Tensor());
  }
  for (const Tensor& v : second_moment_) {
    state.second_moment.push_back(v.defined() ? v.Clone() : Tensor());
  }
  return state;
}

Status Adam::CheckState(const AdamState& state) const {
  if (state.step_count < 0) {
    return Status::InvalidArgument("negative Adam step count");
  }
  if (state.first_moment.size() != parameters_.size() ||
      state.second_moment.size() != parameters_.size()) {
    return Status::InvalidArgument(
        "Adam state slot count mismatch: state has " +
        std::to_string(state.first_moment.size()) + "/" +
        std::to_string(state.second_moment.size()) + ", optimizer has " +
        std::to_string(parameters_.size()));
  }
  for (size_t i = 0; i < parameters_.size(); ++i) {
    // A slot must carry both moments or neither, with the parameter's shape.
    if (state.first_moment[i].defined() != state.second_moment[i].defined()) {
      return Status::InvalidArgument("Adam moment pair mismatch at slot " +
                                     std::to_string(i));
    }
    if (state.first_moment[i].defined() &&
        (state.first_moment[i].shape() != parameters_[i].shape() ||
         state.second_moment[i].shape() != parameters_[i].shape())) {
      return Status::InvalidArgument("Adam moment shape mismatch at slot " +
                                     std::to_string(i));
    }
  }
  return Status::Ok();
}

Status Adam::ImportState(const AdamState& state) {
  const Status status = CheckState(state);
  if (!status.ok()) return status;
  step_count_ = state.step_count;
  for (size_t i = 0; i < parameters_.size(); ++i) {
    first_moment_[i] = state.first_moment[i].defined()
                           ? state.first_moment[i].Clone()
                           : Tensor();
    second_moment_[i] = state.second_moment[i].defined()
                            ? state.second_moment[i].Clone()
                            : Tensor();
  }
  return Status::Ok();
}

void Adam::Step() {
  AUTOCTS_TRACE_SCOPE("adam/step");
  ++step_count_;
  const double bias1 =
      1.0 - std::pow(options_.beta1, static_cast<double>(step_count_));
  const double bias2 =
      1.0 - std::pow(options_.beta2, static_cast<double>(step_count_));
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Variable& parameter = parameters_[i];
    if (!parameter.has_grad()) continue;
    Tensor grad = parameter.grad().Clone();
    if (options_.weight_decay != 0.0) {
      AddInPlace(&grad, MulScalar(parameter.value(), options_.weight_decay));
    }
    if (!first_moment_[i].defined()) {
      first_moment_[i] = Tensor::Zeros(parameter.shape());
      second_moment_[i] = Tensor::Zeros(parameter.shape());
    }
    Tensor& m = first_moment_[i];
    Tensor& v = second_moment_[i];
    double* pm = m.data();
    double* pv = v.data();
    const double* pg = grad.data();
    double* pw = parameter.mutable_value().data();
    const int64_t n = grad.size();
    const double lr = learning_rate_;
    for (int64_t j = 0; j < n; ++j) {
      pm[j] = options_.beta1 * pm[j] + (1.0 - options_.beta1) * pg[j];
      pv[j] = options_.beta2 * pv[j] + (1.0 - options_.beta2) * pg[j] * pg[j];
      const double m_hat = pm[j] / bias1;
      const double v_hat = pv[j] / bias2;
      pw[j] -= lr * m_hat / (std::sqrt(v_hat) + options_.epsilon);
    }
  }
}

bool ClipGradNormChecked(const std::vector<Variable>& parameters,
                         double max_norm, double* pre_clip_norm) {
  AUTOCTS_TRACE_SCOPE("optim/clip_grad_norm");
  AUTOCTS_CHECK_GT(max_norm, 0.0);
  double total_sq = 0.0;
  for (const Variable& parameter : parameters) {
    if (!parameter.has_grad()) continue;
    total_sq += SumSquares(parameter.grad());
  }
  const double total = std::sqrt(total_sq);
  if (pre_clip_norm != nullptr) *pre_clip_norm = total;
  // IEEE comparisons with NaN are false, so an unguarded `total > max_norm`
  // would pass a NaN norm through unclipped; an Inf norm is worse, scaling
  // every gradient by max_norm/Inf == 0 and turning Inf entries into NaN
  // (Inf * 0). Clipping cannot repair either state — leave the gradients
  // untouched and tell the caller to skip the step.
  if (!std::isfinite(total)) return false;
  if (total > max_norm) {
    const double scale = max_norm / (total + 1e-12);
    for (const Variable& parameter : parameters) {
      if (!parameter.has_grad()) continue;
      // Grad tensors are owned by the parameter nodes; scale in place.
      Tensor grad = parameter.grad();
      ScaleInPlace(&grad, scale);
    }
  }
  return true;
}

}  // namespace autocts::optim
