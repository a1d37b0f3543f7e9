// Trained tensors by name: the one in-memory form of a module's weights,
// the one capture and validate-then-copy restore, and the one text codec.
//
// A module's trained state is NamedTensors: (dotted name, tensor) pairs in
// the order the module lists them. Model artifacts hold a StateDict (the
// parameters, then the non-trainable buffers such as BatchNorm running
// statistics); the trainer's best and last-good weights and the search
// checkpoint's weights and Theta are NamedTensors too. All of them are
// captured with CaptureTensors and restored with CheckTensors, which
// validates every tensor before anything is written, then CopyTensors.
//
// Text form (one record per parameter, then one per buffer, registered via
// Module::RegisterBuffer):
//   param = <name> <ndim> <dim0> ... <dimk> <v0> <v1> ... <vn>
//   buffer = <name> <ndim> <dim0> ... <dimk> <v0> <v1> ... <vn>
// Values are written as C99 hex-floats ("%a") so every double round-trips
// bit-identically; the loader also accepts decimal values from old files.
// Files written before buffer records existed still load (the module's
// buffers keep their current values); otherwise the records must name
// every parameter and buffer in the module's order, each with its shape.
//
// The "<ndim> <dims...> <values...>" tail is the one tensor text codec of
// the repository, and "<name> <tensor>" the one named-tensor record: search
// checkpoints and model artifacts embed both.
#ifndef AUTOCTS_NN_STATE_DICT_H_
#define AUTOCTS_NN_STATE_DICT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/text_codec.h"
#include "nn/module.h"

namespace autocts::nn {

// Named tensors in their owner's order (deep copies, owned).
using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

// The live tensors named state is captured from and restored into: a
// module's buffers (Module::NamedBuffers) or the values of named variables
// (VariableSlots).
using TensorSlots = std::vector<std::pair<std::string, Tensor*>>;

// The value tensors of `variables`. Variables are shared handles, so the
// slots stay valid while their module (or supernet) lives.
TensorSlots VariableSlots(
    const std::vector<std::pair<std::string, Variable>>& variables);

// Deep copies of the tensors in `slots`, in order.
NamedTensors CaptureTensors(const TensorSlots& slots);

// Validates `tensors` against `slots` without writing anything: the same
// names in the same order, each with its slot's shape. `kind` names the
// tensors in the message ("parameter", "buffer", "arch parameter").
Status CheckTensors(const NamedTensors& tensors, const TensorSlots& slots,
                    const std::string& kind);

// Writes a deep copy of each tensor into its slot. Call only after
// CheckTensors accepted the pair.
void CopyTensors(const NamedTensors& tensors, const TensorSlots& slots);

// Appends the tokens " <ndim> <dim0> ... <dimk> <v0> ... <vn>" (hex-float
// values) to the writer's open record.
void AppendTensorText(const Tensor& value, TextWriter* writer);

// Parses `text`, the tensor text that ends a record, in place through a
// TokenCursor. The element count the shape claims must fit the bytes left
// in the record (CountFits in common/text_codec.h), checked with
// overflow-safe arithmetic before any storage is acquired; a bad rank,
// shape, value or trailing token is InvalidArgument.
Status ParseTensorText(std::string_view text, const std::string& label,
                       Tensor* out);

// Appends one "<key> = <name> <tensor text>" record per tensor.
void AppendTensorRecords(std::string_view key, const NamedTensors& tensors,
                         TextWriter* writer);

// Parses the value of a named-tensor record, "<name> <tensor text>", and
// appends it to `out`.
Status ParseTensorRecord(std::string_view record, NamedTensors* out);

// A module's trained state: its parameters, then its buffers.
struct StateDict {
  NamedTensors params;
  NamedTensors buffers;

  // The parameter named `name`, or nullptr.
  const Tensor* FindParam(const std::string& name) const;
};

// Deep copies of every parameter and buffer of `module`.
StateDict CaptureStateDict(const Module& module);

// Appends the records of `state`: "<prefix>param = ..." per parameter,
// then "<prefix>buffer = ..." per buffer. Artifacts nest them under the
// prefix "state = ".
void AppendStateDict(const StateDict& state, const std::string& prefix,
                     TextWriter* writer);

// Parses one record ("param = ..." or "buffer = ...") into `state`.
Status ParseStateLine(std::string_view line, StateDict* state);

// The text form of `module`'s state, and its parser (a text document of
// param and buffer records).
std::string SaveStateDict(const Module& module);
StatusOr<StateDict> ParseStateDict(std::string text);

// Restores `state` into `module`: CheckTensors on the parameters (and on
// the buffers when the state carries any), then CopyTensors. A mismatch,
// which signals an architecture mismatch, writes nothing.
Status LoadStateDict(Module* module, const StateDict& state);
Status LoadStateDict(Module* module, std::string text);

}  // namespace autocts::nn

#endif  // AUTOCTS_NN_STATE_DICT_H_
