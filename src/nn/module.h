// Base class for neural-network modules: a recursive registry of named
// parameters and submodules, plus the global training/eval mode switch.
//
// Variables are cheap shared handles, so Parameters() returns copies that
// alias the registered parameters; optimizers operate on those copies.
#ifndef AUTOCTS_NN_MODULE_H_
#define AUTOCTS_NN_MODULE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"

namespace autocts::nn {

class Module {
 public:
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All trainable parameters of this module and its registered submodules.
  std::vector<Variable> Parameters() const;
  // Parameters with dotted path names, e.g. "encoder.fc.weight".
  std::vector<std::pair<std::string, Variable>> NamedParameters() const;
  // Total number of scalar parameters.
  int64_t NumParameters() const;

  // Non-trainable state tensors (e.g. BatchNorm running statistics) with
  // dotted path names. Buffers are updated by Forward in training mode, read
  // in eval mode, and must ship alongside the parameters for a reloaded
  // model to reproduce the trained one's inference behaviour.
  std::vector<std::pair<std::string, Tensor*>> NamedBuffers() const;

  // Switches between training and inference behaviour (dropout, batch norm).
  void SetTraining(bool training);
  bool training() const { return training_; }

 protected:
  Module() = default;

  // Registers a trainable parameter; returns a handle aliasing it.
  Variable RegisterParameter(const std::string& name, Tensor value);
  // Registers a submodule (not owned; typically a member of the subclass).
  void RegisterModule(const std::string& name, Module* module);
  // Registers a non-trainable buffer (not owned; a Tensor member of the
  // subclass, which must outlive any NamedBuffers() result).
  void RegisterBuffer(const std::string& name, Tensor* buffer);

 private:
  void CollectParameters(
      const std::string& prefix,
      std::vector<std::pair<std::string, Variable>>* out) const;
  void CollectBuffers(
      const std::string& prefix,
      std::vector<std::pair<std::string, Tensor*>>* out) const;

  bool training_ = true;
  std::vector<std::pair<std::string, Variable>> parameters_;
  std::vector<std::pair<std::string, Tensor*>> buffers_;
  std::vector<std::pair<std::string, Module*>> submodules_;
};

// Xavier/Glorot uniform initialization: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
Tensor XavierUniform(const Shape& shape, int64_t fan_in, int64_t fan_out,
                     Rng* rng);

}  // namespace autocts::nn

#endif  // AUTOCTS_NN_MODULE_H_
