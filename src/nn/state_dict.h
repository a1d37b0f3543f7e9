// Parameter (de)serialization: save and restore the trained weights of any
// Module by parameter name, in a line-oriented text format (no third-party
// dependency). Used for checkpointing, best-weights restore, and shipping
// trained forecasting models next to their genotypes.
//
// Format (one record per parameter, then one per non-trainable buffer —
// e.g. BatchNorm running statistics — registered via Module::RegisterBuffer):
//   param = <name> <ndim> <dim0> ... <dimk> <v0> <v1> ... <vn>
//   buffer = <name> <ndim> <dim0> ... <dimk> <v0> <v1> ... <vn>
// Values are written as C99 hex-floats ("%a") so every double round-trips
// bit-identically; the loader also accepts decimal values from old files.
// Files written before buffer records existed still load (the module's
// buffers keep their current values); an unknown buffer name or shape
// mismatch is rejected like any architecture mismatch.
//
// The "<ndim> <dims...> <values...>" tail is the one tensor text codec of
// the repository: search checkpoints and model artifacts embed tensors
// through AppendTensorText/ParseTensorText too.
#ifndef AUTOCTS_NN_STATE_DICT_H_
#define AUTOCTS_NN_STATE_DICT_H_

#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nn/module.h"

namespace autocts::nn {

// Appends " <ndim> <dim0> ... <dimk> <v0> ... <vn>" (hex-float values).
void AppendTensorText(const Tensor& value, std::ostream* out);

// Parses the tensor that ends `record`. The element count the shape claims
// must fit the bytes left in the record (CountFits in common/text_codec.h),
// checked with overflow-safe arithmetic before any storage is acquired; a
// bad rank, shape, value or trailing token is InvalidArgument.
Status ParseTensorText(std::istringstream* record, const std::string& label,
                       Tensor* out);

// Serializes every named parameter of `module`.
std::string SaveStateDict(const Module& module);

// The records of a state-dict text, parsed (every shape under the count
// rule of ParseTensorText) but not yet matched against a module.
struct StateDict {
  std::vector<std::pair<std::string, Tensor>> params;
  std::vector<std::pair<std::string, Tensor>> buffers;

  // The parameter record named `name`, or nullptr.
  const Tensor* FindParam(const std::string& name) const;
};
StatusOr<StateDict> ParseStateDict(const std::string& text);

// Restores parameter values into `module`. Every parameter of the module
// must be present in the text with a matching shape; unknown extra records
// are rejected too (they signal an architecture mismatch).
Status LoadStateDict(Module* module, const StateDict& state);
Status LoadStateDict(Module* module, const std::string& text);

// In-memory snapshot/restore used for best-validation-weights tracking.
// Snapshot captures deep copies of all parameter values. Intentionally
// parameters-only: training-time rollback keeps the running statistics the
// model has accumulated, matching the pre-buffer behaviour bit-for-bit.
class ParameterSnapshot {
 public:
  // Captures the current values of `module`'s parameters.
  explicit ParameterSnapshot(const Module& module);

  // Writes the captured values back (module must have identical structure).
  void Restore(Module* module) const;

 private:
  std::vector<std::pair<std::string, Tensor>> values_;
};

}  // namespace autocts::nn

#endif  // AUTOCTS_NN_STATE_DICT_H_
