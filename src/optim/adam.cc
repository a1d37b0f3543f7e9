#include "optim/adam.h"

#include <cmath>

#include "common/trace.h"
#include "tensor/tensor_ops.h"

namespace autocts::optim {

Adam::Adam(std::vector<Variable> parameters, Options options)
    : Optimizer(std::move(parameters)), options_(options) {
  learning_rate_ = options.learning_rate;
  first_moment_.resize(parameters_.size());
  second_moment_.resize(parameters_.size());
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

}  // namespace autocts::optim
