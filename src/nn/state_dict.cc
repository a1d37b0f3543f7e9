#include "nn/state_dict.h"

namespace autocts::nn {
namespace {

// Appends the record "<key> = <value>" to the state's params or buffers.
Status ParseStateRecord(std::string_view key, std::string_view value,
                        StateDict* state) {
  NamedTensors* out = key == "param"    ? &state->params
                      : key == "buffer" ? &state->buffers
                                        : nullptr;
  if (out == nullptr) {
    return Status::InvalidArgument("not a param or buffer record");
  }
  return ParseTensorRecord(value, out);
}

}  // namespace

TensorSlots VariableSlots(
    const std::vector<std::pair<std::string, Variable>>& variables) {
  TensorSlots slots;
  slots.reserve(variables.size());
  for (const auto& [name, variable] : variables) {
    Variable handle = variable;
    slots.emplace_back(name, &handle.mutable_value());
  }
  return slots;
}

NamedTensors CaptureTensors(const TensorSlots& slots) {
  NamedTensors tensors;
  tensors.reserve(slots.size());
  for (const auto& [name, slot] : slots) {
    tensors.emplace_back(name, slot->Clone());
  }
  return tensors;
}

Status CheckTensors(const NamedTensors& tensors, const TensorSlots& slots,
                    const std::string& kind) {
  if (tensors.size() != slots.size()) {
    return Status::InvalidArgument(
        kind + " count mismatch: state has " + std::to_string(tensors.size()) +
        ", target has " + std::to_string(slots.size()));
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (tensors[i].first != slots[i].first) {
      return Status::InvalidArgument(
          kind + " " + std::to_string(i) + " is " + tensors[i].first +
          ", expected " + slots[i].first);
    }
    if (tensors[i].second.shape() != slots[i].second->shape()) {
      return Status::InvalidArgument(kind + " shape mismatch for: " +
                                     slots[i].first);
    }
  }
  return Status::Ok();
}

void CopyTensors(const NamedTensors& tensors, const TensorSlots& slots) {
  AUTOCTS_CHECK_EQ(tensors.size(), slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    *slots[i].second = tensors[i].second.Clone();
  }
}

void AppendTensorText(const Tensor& value, TextWriter* writer) {
  writer->Int(value.ndim());
  for (int64_t d : value.shape()) writer->Int(d);
  // Hex-float ("%a") output is an exact image of the bits, so every
  // value — 0.1, denormals, extremes — reloads bit-identically. (The
  // previous 17-significant-digit decimal form is still accepted for old
  // files.)
  for (int64_t i = 0; i < value.size(); ++i) writer->Double(value.data()[i]);
}

Status ParseTensorText(std::string_view text, const std::string& label,
                       Tensor* out) {
  TokenCursor in(text);
  int64_t ndim = 0;
  if (!in.Int(&ndim) || ndim < 0 || ndim > 8) {
    return Status::InvalidArgument("bad tensor rank in record: " + label);
  }
  Shape shape(ndim);
  int64_t elements = 1;
  bool overflow = false;
  for (int64_t& d : shape) {
    if (!in.Int(&d) || d < 0) {
      return Status::InvalidArgument("bad tensor shape in record: " + label);
    }
    overflow |= __builtin_mul_overflow(elements, d, &elements);
  }
  if (overflow || !CountFits(elements, in.bytes_left())) {
    return Status::InvalidArgument(
        "tensor shape claims more values than its record holds: " + label);
  }
  Tensor value = Tensor::Uninitialized(shape);
  for (int64_t i = 0; i < value.size(); ++i) {
    if (!in.Double(&value.data()[i])) {
      return Status::InvalidArgument("truncated or malformed values in: " +
                                     label);
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing values in: " + label);
  }
  *out = std::move(value);
  return Status::Ok();
}

void AppendTensorRecords(std::string_view key, const NamedTensors& tensors,
                         TextWriter* writer) {
  for (const auto& [name, value] : tensors) {
    writer->Record(key).Word(name);
    AppendTensorText(value, writer);
    writer->End();
  }
}

Status ParseTensorRecord(std::string_view record, NamedTensors* out) {
  TokenCursor in(record);
  std::string name(in.Word());
  if (name.empty()) {
    return Status::InvalidArgument("named-tensor record without a name");
  }
  Tensor value;
  const Status status = ParseTensorText(in.rest(), name, &value);
  if (!status.ok()) return status;
  out->emplace_back(std::move(name), std::move(value));
  return Status::Ok();
}

const Tensor* StateDict::FindParam(const std::string& name) const {
  for (const auto& [record_name, value] : params) {
    if (record_name == name) return &value;
  }
  return nullptr;
}

StateDict CaptureStateDict(const Module& module) {
  return {CaptureTensors(VariableSlots(module.NamedParameters())),
          CaptureTensors(module.NamedBuffers())};
}

void AppendStateDict(const StateDict& state, const std::string& prefix,
                     TextWriter* writer) {
  AppendTensorRecords(prefix + "param", state.params, writer);
  AppendTensorRecords(prefix + "buffer", state.buffers, writer);
}

Status ParseStateLine(std::string_view line, StateDict* state) {
  const size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("not a param or buffer record");
  }
  return ParseStateRecord(StripWhitespace(line.substr(0, eq)),
                          line.substr(eq + 1), state);
}

std::string SaveStateDict(const Module& module) {
  TextWriter writer;
  AppendStateDict(CaptureStateDict(module), "", &writer);
  return writer.Release();
}

StatusOr<StateDict> ParseStateDict(std::string text) {
  StatusOr<TextReader> reader = TextReader::Parse(std::move(text));
  if (!reader.ok()) return reader.status();
  StateDict state;
  for (const auto& [key, value] : reader.value().entries()) {
    const Status status = ParseStateRecord(key, value, &state);
    if (!status.ok()) return status;
  }
  return state;
}

Status LoadStateDict(Module* module, const StateDict& state) {
  AUTOCTS_CHECK(module != nullptr);
  const TensorSlots params = VariableSlots(module->NamedParameters());
  const TensorSlots buffers = module->NamedBuffers();
  Status status = CheckTensors(state.params, params, "parameter");
  // A state without buffer records (written before buffers existed) leaves
  // the module's buffers at their current values.
  const bool with_buffers = !state.buffers.empty();
  if (status.ok() && with_buffers) {
    status = CheckTensors(state.buffers, buffers, "buffer");
  }
  if (!status.ok()) return status;
  CopyTensors(state.params, params);
  if (with_buffers) CopyTensors(state.buffers, buffers);
  return Status::Ok();
}

Status LoadStateDict(Module* module, std::string text) {
  StatusOr<StateDict> state = ParseStateDict(std::move(text));
  if (!state.ok()) return state.status();
  return LoadStateDict(module, state.value());
}

}  // namespace autocts::nn
