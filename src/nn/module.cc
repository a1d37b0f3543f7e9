#include "nn/module.h"

#include <cmath>

namespace autocts::nn {

std::vector<Variable> Module::Parameters() const {
  std::vector<std::pair<std::string, Variable>> named = NamedParameters();
  std::vector<Variable> result;
  result.reserve(named.size());
  for (auto& [name, variable] : named) result.push_back(variable);
  return result;
}

std::vector<std::pair<std::string, Variable>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Variable>> result;
  CollectParameters("", &result);
  return result;
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const Variable& parameter : Parameters()) total += parameter.size();
  return total;
}

std::vector<std::pair<std::string, Tensor*>> Module::NamedBuffers() const {
  std::vector<std::pair<std::string, Tensor*>> result;
  CollectBuffers("", &result);
  return result;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, submodule] : submodules_) submodule->SetTraining(training);
}

Variable Module::RegisterParameter(const std::string& name, Tensor value) {
  Variable parameter(std::move(value), /*requires_grad=*/true);
  parameters_.emplace_back(name, parameter);
  return parameter;
}

void Module::RegisterModule(const std::string& name, Module* module) {
  AUTOCTS_CHECK(module != nullptr);
  submodules_.emplace_back(name, module);
}

void Module::RegisterBuffer(const std::string& name, Tensor* buffer) {
  AUTOCTS_CHECK(buffer != nullptr);
  buffers_.emplace_back(name, buffer);
}

void Module::CollectParameters(
    const std::string& prefix,
    std::vector<std::pair<std::string, Variable>>* out) const {
  for (const auto& [name, parameter] : parameters_) {
    out->emplace_back(prefix.empty() ? name : prefix + "." + name, parameter);
  }
  for (const auto& [name, submodule] : submodules_) {
    submodule->CollectParameters(prefix.empty() ? name : prefix + "." + name,
                                 out);
  }
}

void Module::CollectBuffers(
    const std::string& prefix,
    std::vector<std::pair<std::string, Tensor*>>* out) const {
  for (const auto& [name, buffer] : buffers_) {
    out->emplace_back(prefix.empty() ? name : prefix + "." + name, buffer);
  }
  for (const auto& [name, submodule] : submodules_) {
    submodule->CollectBuffers(prefix.empty() ? name : prefix + "." + name,
                              out);
  }
}

Tensor XavierUniform(const Shape& shape, int64_t fan_in, int64_t fan_out,
                     Rng* rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return Tensor::Rand(shape, rng, -limit, limit);
}

}  // namespace autocts::nn
