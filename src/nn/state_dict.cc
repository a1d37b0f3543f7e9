#include "nn/state_dict.h"

#include "common/text_codec.h"

namespace autocts::nn {
namespace {

void AppendTensorRecord(const std::string& key, const std::string& name,
                        const Tensor& value, std::ostringstream* out) {
  *out << key << " = " << name;
  AppendTensorText(value, out);
  *out << "\n";
}

Status ParseTensorRecord(const std::string& record, std::string* name,
                         Tensor* value) {
  std::istringstream stream(record);
  if (!(stream >> *name)) {
    return Status::InvalidArgument("malformed record: " + record);
  }
  return ParseTensorText(&stream, *name, value);
}

}  // namespace

void AppendTensorText(const Tensor& value, std::ostream* out) {
  *out << " " << value.ndim();
  for (int64_t d : value.shape()) *out << " " << d;
  // Hex-float ("%a") output is an exact image of the bits, so every
  // value — 0.1, denormals, extremes — reloads bit-identically. (The
  // previous 17-significant-digit decimal form is still accepted for old
  // files.)
  for (int64_t i = 0; i < value.size(); ++i) {
    *out << " " << FormatExactDouble(value.data()[i]);
  }
}

Status ParseTensorText(std::istringstream* record, const std::string& label,
                       Tensor* out) {
  int64_t ndim = 0;
  if (!(*record >> ndim) || ndim < 0 || ndim > 8) {
    return Status::InvalidArgument("bad tensor rank in record: " + label);
  }
  Shape shape(ndim);
  int64_t elements = 1;
  bool overflow = false;
  for (int64_t& d : shape) {
    if (!(*record >> d) || d < 0) {
      return Status::InvalidArgument("bad tensor shape in record: " + label);
    }
    overflow |= __builtin_mul_overflow(elements, d, &elements);
  }
  if (overflow || !CountFits(elements, record->rdbuf()->in_avail())) {
    return Status::InvalidArgument(
        "tensor shape claims more values than its record holds: " + label);
  }
  Tensor value = Tensor::Uninitialized(shape);
  // Token-wise strtod parsing: istream extraction does not accept the
  // hex-float form (LWG 2381).
  std::string token;
  for (int64_t i = 0; i < value.size(); ++i) {
    if (!(*record >> token) || !ParseExactDouble(token, &value.data()[i])) {
      return Status::InvalidArgument("truncated or malformed values in: " +
                                     label);
    }
  }
  if (*record >> token) {
    return Status::InvalidArgument("trailing values in: " + label);
  }
  *out = std::move(value);
  return Status::Ok();
}

std::string SaveStateDict(const Module& module) {
  std::ostringstream out;
  for (const auto& [name, parameter] : module.NamedParameters()) {
    AppendTensorRecord("param", name, parameter.value(), &out);
  }
  for (const auto& [name, buffer] : module.NamedBuffers()) {
    AppendTensorRecord("buffer", name, *buffer, &out);
  }
  return out.str();
}

const Tensor* StateDict::FindParam(const std::string& name) const {
  for (const auto& [record_name, value] : params) {
    if (record_name == name) return &value;
  }
  return nullptr;
}

StatusOr<StateDict> ParseStateDict(const std::string& text) {
  StatusOr<TextReader> reader = TextReader::Parse(text);
  if (!reader.ok()) return reader.status();
  StateDict state;
  for (const auto& [key, out] : {std::pair{"param", &state.params},
                                 std::pair{"buffer", &state.buffers}}) {
    for (const std::string& record : reader.value().GetAll(key)) {
      std::string name;
      Tensor value;
      Status status = ParseTensorRecord(record, &name, &value);
      if (!status.ok()) return status;
      out->emplace_back(name, value);
    }
  }
  return state;
}

Status LoadStateDict(Module* module, const std::string& text) {
  StatusOr<StateDict> state = ParseStateDict(text);
  if (!state.ok()) return state.status();
  return LoadStateDict(module, state.value());
}

Status LoadStateDict(Module* module, const StateDict& state) {
  AUTOCTS_CHECK(module != nullptr);

  // Match against the module's parameters.
  std::vector<std::pair<std::string, Variable>> parameters =
      module->NamedParameters();
  if (state.params.size() != parameters.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " +
        std::to_string(state.params.size()) + ", module has " +
        std::to_string(parameters.size()));
  }
  for (auto& [name, parameter] : parameters) {
    const Tensor* found = state.FindParam(name);
    if (found == nullptr) return Status::NotFound("missing parameter: " + name);
    if (found->shape() != parameter.shape()) {
      return Status::InvalidArgument("shape mismatch for: " + name);
    }
  }

  // Match buffer records against the module's buffers. Files written before
  // buffers existed carry none — those load with buffers left at their
  // current values — but an unknown buffer name or a shape mismatch is an
  // architecture mismatch, rejected like a bad param record.
  std::vector<std::pair<std::string, Tensor*>> buffers =
      module->NamedBuffers();
  for (const auto& [record_name, value] : state.buffers) {
    Tensor* found = nullptr;
    for (const auto& [name, buffer] : buffers) {
      if (name == record_name) {
        found = buffer;
        break;
      }
    }
    if (found == nullptr) {
      return Status::InvalidArgument("unknown buffer: " + record_name);
    }
    if (found->shape() != value.shape()) {
      return Status::InvalidArgument("shape mismatch for buffer: " +
                                     record_name);
    }
  }

  // All validated; now write values.
  for (auto& [name, parameter] : parameters) {
    parameter.mutable_value() = state.FindParam(name)->Clone();
  }
  for (const auto& [record_name, value] : state.buffers) {
    for (auto& [name, buffer] : buffers) {
      if (name == record_name) {
        *buffer = value.Clone();
        break;
      }
    }
  }
  return Status::Ok();
}

ParameterSnapshot::ParameterSnapshot(const Module& module) {
  for (const auto& [name, parameter] : module.NamedParameters()) {
    values_.emplace_back(name, parameter.value().Clone());
  }
}

void ParameterSnapshot::Restore(Module* module) const {
  AUTOCTS_CHECK(module != nullptr);
  std::vector<std::pair<std::string, Variable>> parameters =
      module->NamedParameters();
  AUTOCTS_CHECK_EQ(parameters.size(), values_.size())
      << "snapshot/module structure mismatch";
  for (size_t i = 0; i < parameters.size(); ++i) {
    AUTOCTS_CHECK(parameters[i].first == values_[i].first)
        << "snapshot/module parameter order mismatch at " << i;
    AUTOCTS_CHECK(parameters[i].second.shape() == values_[i].second.shape());
    parameters[i].second.mutable_value() = values_[i].second.Clone();
  }
}

}  // namespace autocts::nn
