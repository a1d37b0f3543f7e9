#include "core/search_checkpoint.h"

#include <sstream>

#include "common/file_io.h"
#include "common/numerics.h"
#include "common/text_codec.h"
#include "nn/state_dict.h"

namespace autocts::core {
namespace {

constexpr char kFormatName[] = "autocts-search-checkpoint";

Status ExpectEndOfRecord(std::istringstream* stream, const std::string& label) {
  std::string extra;
  if (*stream >> extra) {
    return Status::InvalidArgument("trailing tokens in record: " + label);
  }
  return Status::Ok();
}

void AppendAdamState(std::ostringstream* out, const std::string& key,
                     const optim::AdamState& state) {
  *out << key << " = " << state.step_count << " " << state.first_moment.size()
       << "\n";
  for (size_t slot = 0; slot < state.first_moment.size(); ++slot) {
    *out << key << "_m = " << slot << " "
         << (state.first_moment[slot].defined() ? 1 : 0);
    if (state.first_moment[slot].defined()) {
      nn::AppendTensorText(state.first_moment[slot], out);
    }
    *out << "\n";
    *out << key << "_v = " << slot << " "
         << (state.second_moment[slot].defined() ? 1 : 0);
    if (state.second_moment[slot].defined()) {
      nn::AppendTensorText(state.second_moment[slot], out);
    }
    *out << "\n";
  }
}

Status ParseMomentRecords(const TextReader& reader, const std::string& key,
                          int64_t slots, std::vector<Tensor>* out) {
  const std::vector<std::string> records = reader.GetAll(key);
  if (static_cast<int64_t>(records.size()) != slots) {
    return Status::InvalidArgument(
        key + " record count mismatch: expected " + std::to_string(slots) +
        ", found " + std::to_string(records.size()));
  }
  out->assign(slots, Tensor());
  std::vector<bool> seen(slots, false);
  for (const std::string& record : records) {
    std::string_view rest = record;
    int64_t slot = 0;
    const bool slot_ok = ParseExactInt(NextToken(&rest), &slot);
    const std::string_view defined = NextToken(&rest);
    if (!slot_ok || slot < 0 || slot >= slots ||
        (defined != "0" && defined != "1") || seen[slot]) {
      return Status::InvalidArgument("malformed " + key + " record: " + record);
    }
    seen[slot] = true;
    if (defined == "1") {
      const Status status = nn::ParseTensorText(rest, key, &(*out)[slot]);
      if (!status.ok()) return status;
    } else if (!NextToken(&rest).empty()) {
      return Status::InvalidArgument("trailing tokens in record: " + key);
    }
  }
  return Status::Ok();
}

Status ParseAdamState(const TextReader& reader, const std::string& key,
                      optim::AdamState* out) {
  StatusOr<std::string> header = reader.Get(key);
  if (!header.ok()) return header.status();
  std::istringstream stream(header.value());
  int64_t slots = 0;
  if (!(stream >> out->step_count >> slots) || out->step_count < 0 ||
      slots < 0) {
    return Status::InvalidArgument("malformed " + key + " header: " +
                                   header.value());
  }
  Status status = ExpectEndOfRecord(&stream, key);
  if (!status.ok()) return status;
  status = ParseMomentRecords(reader, key + "_m", slots, &out->first_moment);
  if (!status.ok()) return status;
  return ParseMomentRecords(reader, key + "_v", slots, &out->second_moment);
}

Status ParseIndexOrder(const TextReader& reader, const std::string& key,
                       std::vector<int64_t>* out) {
  StatusOr<std::string> record = reader.Get(key);
  if (!record.ok()) return record.status();
  std::istringstream stream(record.value());
  int64_t n = 0;
  if (!(stream >> n) || !CountFits(n, stream.rdbuf()->in_avail())) {
    return Status::InvalidArgument("malformed " + key + " record");
  }
  out->assign(n, 0);
  for (int64_t i = 0; i < n; ++i) {
    if (!(stream >> (*out)[i]) || (*out)[i] < 0) {
      return Status::InvalidArgument("truncated " + key + " record");
    }
  }
  return ExpectEndOfRecord(&stream, key);
}

// The restored split orders must have the live orders' sizes and index
// only windows of the training split.
Status CheckSplitOrders(const SearchCheckpoint& checkpoint,
                        const std::vector<int64_t>& pseudo_train,
                        const std::vector<int64_t>& pseudo_val) {
  if (checkpoint.pseudo_train.size() != pseudo_train.size() ||
      checkpoint.pseudo_val.size() != pseudo_val.size()) {
    return Status::InvalidArgument("pseudo-split size mismatch");
  }
  const int64_t total = static_cast<int64_t>(pseudo_train.size()) +
                        static_cast<int64_t>(pseudo_val.size());
  for (const std::vector<int64_t>* order :
       {&checkpoint.pseudo_train, &checkpoint.pseudo_val}) {
    for (int64_t index : *order) {
      if (index >= total) {
        return Status::InvalidArgument("pseudo-split index out of range");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::string SearchConfigFingerprint(const SearchOptions& options,
                                    int64_t num_train_samples) {
  std::ostringstream out;
  out << "v" << SearchCheckpoint::kFormatVersion
      << " seed=" << options.seed << " epochs=" << options.epochs
      << " batch=" << options.batch_size
      << " max_batches=" << options.max_batches_per_epoch
      << " bilevel=" << options.bilevel_order
      << " macro=" << options.use_macro
      << " temp=" << options.use_temperature
      << " tau=" << FormatExactDouble(kTauInit) << ","
      << FormatExactDouble(kTauDecay) << "," << FormatExactDouble(kTauMin)
      << " theta=" << FormatExactDouble(options.theta_learning_rate) << ","
      << FormatExactDouble(kThetaBeta1) << ","
      << FormatExactDouble(kThetaBeta2) << ","
      << FormatExactDouble(kThetaWeightDecay)
      << " w=" << FormatExactDouble(kWeightLearningRate) << ","
      << FormatExactDouble(kWeightDecay)
      << " clip=" << FormatExactDouble(kSearchClipNorm)
      << " cost=" << FormatExactDouble(options.cost_weight)
      << " eps=" << FormatExactDouble(kUnrolledEpsilon)
      << " supernet=" << options.supernet.micro_nodes << "x"
      << options.supernet.macro_blocks << "x" << options.supernet.hidden_dim
      << "/" << options.supernet.partial_denominator << "/"
      << options.supernet.edges_per_node << " ops=" << options.supernet.op_set.name;
  for (const std::string& op : options.supernet.op_set.op_names) {
    out << "," << op;
  }
  out << " train_samples=" << num_train_samples;
  return out.str();
}

std::string EncodeSearchCheckpoint(const SearchCheckpoint& checkpoint) {
  std::ostringstream out;
  out << "format = " << kFormatName << "\n";
  out << "version = " << SearchCheckpoint::kFormatVersion << "\n";
  out << "config = " << checkpoint.config_fingerprint << "\n";
  out << "cursor = " << checkpoint.epoch << " " << checkpoint.step << "\n";
  out << "tau = " << FormatExactDouble(checkpoint.tau) << "\n";
  out << "val_loss = " << FormatExactDouble(checkpoint.val_loss_sum) << " "
      << checkpoint.epoch_steps << " "
      << FormatExactDouble(checkpoint.final_validation_loss) << "\n";
  out << "rng = " << checkpoint.rng.words[0] << " " << checkpoint.rng.words[1]
      << " " << checkpoint.rng.words[2] << " " << checkpoint.rng.words[3]
      << " " << (checkpoint.rng.has_cached_normal ? 1 : 0) << " "
      << FormatExactDouble(checkpoint.rng.cached_normal) << "\n";
  out << "order_train = " << checkpoint.pseudo_train.size();
  for (int64_t index : checkpoint.pseudo_train) out << " " << index;
  out << "\n";
  out << "order_val = " << checkpoint.pseudo_val.size();
  for (int64_t index : checkpoint.pseudo_val) out << " " << index;
  out << "\n";
  for (const auto& [key, tensors] :
       {std::pair{"param", &checkpoint.parameters},
        std::pair{"arch", &checkpoint.arch_parameters}}) {
    out << key << "_count = " << tensors->size() << "\n";
    for (const auto& [name, value] : *tensors) {
      nn::AppendTensorRecord(key, name, value, &out);
      out << "\n";
    }
  }
  AppendAdamState(&out, "adam_w", checkpoint.weight_optimizer);
  AppendAdamState(&out, "adam_t", checkpoint.theta_optimizer);
  // Metrics state rides along as repeated single-line records so the
  // line-oriented reader (and the byte-flip corruption sweep) treat it
  // like any other payload. Zero lines — not an absent record — is the
  // "metrics off" encoding; absence only occurs in pre-observability
  // files, which still decode.
  {
    std::vector<std::string> metric_lines;
    if (!checkpoint.metrics_state.empty()) {
      std::istringstream stream(checkpoint.metrics_state);
      std::string line;
      while (std::getline(stream, line)) {
        if (!line.empty()) metric_lines.push_back(line);
      }
    }
    out << "metrics_count = " << metric_lines.size() << "\n";
    for (const std::string& line : metric_lines) {
      out << "metrics = " << line << "\n";
    }
  }
  return SealText(out.str());
}

StatusOr<SearchCheckpoint> DecodeSearchCheckpoint(const std::string& text) {
  StatusOr<TextReader> parsed =
      OpenSealedText(text, kFormatName, SearchCheckpoint::kFormatVersion);
  if (!parsed.ok()) return parsed.status();
  const TextReader& reader = parsed.value();

  SearchCheckpoint checkpoint;
  StatusOr<std::string> config = reader.Get("config");
  if (!config.ok()) return config.status();
  checkpoint.config_fingerprint = config.value();

  StatusOr<std::string> cursor = reader.Get("cursor");
  if (!cursor.ok()) return cursor.status();
  {
    std::istringstream stream(cursor.value());
    if (!(stream >> checkpoint.epoch >> checkpoint.step) ||
        checkpoint.epoch < 0 || checkpoint.step < 0) {
      return Status::InvalidArgument("malformed cursor: " + cursor.value());
    }
    Status status = ExpectEndOfRecord(&stream, "cursor");
    if (!status.ok()) return status;
  }

  StatusOr<std::string> tau = reader.Get("tau");
  if (!tau.ok()) return tau.status();
  if (!ParseExactDouble(tau.value(), &checkpoint.tau)) {
    return Status::InvalidArgument("malformed tau: " + tau.value());
  }

  StatusOr<std::string> val_loss = reader.Get("val_loss");
  if (!val_loss.ok()) return val_loss.status();
  {
    std::istringstream stream(val_loss.value());
    std::string sum_token, final_token;
    if (!(stream >> sum_token >> checkpoint.epoch_steps >> final_token) ||
        checkpoint.epoch_steps < 0 ||
        !ParseExactDouble(sum_token, &checkpoint.val_loss_sum) ||
        !ParseExactDouble(final_token, &checkpoint.final_validation_loss)) {
      return Status::InvalidArgument("malformed val_loss: " + val_loss.value());
    }
    Status status = ExpectEndOfRecord(&stream, "val_loss");
    if (!status.ok()) return status;
  }

  StatusOr<std::string> rng = reader.Get("rng");
  if (!rng.ok()) return rng.status();
  {
    std::istringstream stream(rng.value());
    int has_cached = 0;
    std::string cached_token;
    if (!(stream >> checkpoint.rng.words[0] >> checkpoint.rng.words[1] >>
          checkpoint.rng.words[2] >> checkpoint.rng.words[3] >> has_cached >>
          cached_token) ||
        (has_cached != 0 && has_cached != 1) ||
        !ParseExactDouble(cached_token, &checkpoint.rng.cached_normal)) {
      return Status::InvalidArgument("malformed rng record: " + rng.value());
    }
    checkpoint.rng.has_cached_normal = has_cached == 1;
    Status status = ExpectEndOfRecord(&stream, "rng");
    if (!status.ok()) return status;
  }

  Status status =
      ParseIndexOrder(reader, "order_train", &checkpoint.pseudo_train);
  if (!status.ok()) return status;
  status = ParseIndexOrder(reader, "order_val", &checkpoint.pseudo_val);
  if (!status.ok()) return status;

  for (const auto& [key, tensors] :
       {std::pair{"param", &checkpoint.parameters},
        std::pair{"arch", &checkpoint.arch_parameters}}) {
    StatusOr<std::vector<std::string>> records =
        reader.GetCounted(std::string(key) + "_count", key);
    if (!records.ok()) return records.status();
    for (const std::string& record : records.value()) {
      status = nn::ParseTensorRecord(record, tensors);
      if (!status.ok()) return status;
    }
  }

  status = ParseAdamState(reader, "adam_w", &checkpoint.weight_optimizer);
  if (!status.ok()) return status;
  status = ParseAdamState(reader, "adam_t", &checkpoint.theta_optimizer);
  if (!status.ok()) return status;

  // Optional metrics block: pre-observability checkpoints (still version
  // 1, so their fingerprints remain valid) simply lack the record.
  StatusOr<int64_t> metrics_count = reader.GetInt("metrics_count");
  if (metrics_count.ok()) {
    const int64_t count = metrics_count.value();
    const std::vector<std::string> lines = reader.GetAll("metrics");
    if (static_cast<int64_t>(lines.size()) != count) {
      return Status::InvalidArgument(
          "metrics_count does not match metrics records");
    }
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i > 0) checkpoint.metrics_state += '\n';
      checkpoint.metrics_state += lines[i];
    }
  } else if (metrics_count.status().code() != StatusCode::kNotFound) {
    return metrics_count.status();
  }
  return checkpoint;
}

Status SaveSearchCheckpoint(const SearchCheckpoint& checkpoint,
                            const std::string& path) {
  return AtomicWriteFile(path, EncodeSearchCheckpoint(checkpoint),
                         /*keep_previous=*/true);
}

StatusOr<SearchCheckpoint> LoadSearchCheckpoint(const std::string& path) {
  return LoadFile<SearchCheckpoint>(path, DecodeSearchCheckpoint);
}

StatusOr<SearchCheckpoint> LoadSearchCheckpointOrPrev(const std::string& path,
                                                      bool* used_prev) {
  return LoadFileOrPrev<SearchCheckpoint>(path, DecodeSearchCheckpoint,
                                          used_prev);
}

Status CheckpointNumericHealth(const SearchCheckpoint& checkpoint) {
  if (!numerics::IsFiniteValue(checkpoint.tau)) {
    return Status::Internal("non-finite tau");
  }
  if (!numerics::IsFiniteValue(checkpoint.val_loss_sum)) {
    return Status::Internal("non-finite val_loss_sum");
  }
  if (!numerics::IsFiniteValue(checkpoint.final_validation_loss)) {
    return Status::Internal("non-finite final_validation_loss");
  }
  for (const auto& [name, tensor] : checkpoint.parameters) {
    if (!numerics::IsFinite(tensor)) {
      return Status::Internal("non-finite values in parameter '" + name + "'");
    }
  }
  for (const auto& [name, tensor] : checkpoint.arch_parameters) {
    if (!numerics::IsFinite(tensor)) {
      return Status::Internal("non-finite values in arch parameter '" + name +
                              "'");
    }
  }
  const auto check_adam = [](const optim::AdamState& state,
                             const char* label) -> Status {
    for (size_t slot = 0; slot < state.first_moment.size(); ++slot) {
      const Tensor& m = state.first_moment[slot];
      if (m.defined() && !numerics::IsFinite(m)) {
        return Status::Internal(std::string("non-finite first moment in ") +
                                label + " slot " + std::to_string(slot));
      }
    }
    for (size_t slot = 0; slot < state.second_moment.size(); ++slot) {
      const Tensor& v = state.second_moment[slot];
      if (v.defined() && !numerics::IsFinite(v)) {
        return Status::Internal(std::string("non-finite second moment in ") +
                                label + " slot " + std::to_string(slot));
      }
    }
    return Status::Ok();
  };
  Status status = check_adam(checkpoint.weight_optimizer, "weight optimizer");
  if (!status.ok()) return status;
  return check_adam(checkpoint.theta_optimizer, "theta optimizer");
}

SearchCheckpoint CaptureSearchState(const Supernet& supernet,
                                    const optim::Adam& weight_optimizer,
                                    const optim::Adam& theta_optimizer,
                                    const Rng& rng,
                                    const std::vector<int64_t>& pseudo_train,
                                    const std::vector<int64_t>& pseudo_val) {
  SearchCheckpoint checkpoint;
  checkpoint.tau = supernet.temperature();
  checkpoint.parameters =
      nn::CaptureTensors(nn::VariableSlots(supernet.NamedParameters()));
  checkpoint.arch_parameters =
      nn::CaptureTensors(nn::VariableSlots(supernet.NamedArchParameters()));
  checkpoint.weight_optimizer = weight_optimizer.ExportState();
  checkpoint.theta_optimizer = theta_optimizer.ExportState();
  checkpoint.rng = rng.GetState();
  checkpoint.pseudo_train = pseudo_train;
  checkpoint.pseudo_val = pseudo_val;
  return checkpoint;
}

Status RestoreSearchState(const SearchCheckpoint& checkpoint,
                          Supernet* supernet, optim::Adam* weight_optimizer,
                          optim::Adam* theta_optimizer, Rng* rng,
                          std::vector<int64_t>* pseudo_train,
                          std::vector<int64_t>* pseudo_val) {
  AUTOCTS_CHECK(supernet != nullptr);
  const nn::TensorSlots weights =
      nn::VariableSlots(supernet->NamedParameters());
  const nn::TensorSlots theta =
      nn::VariableSlots(supernet->NamedArchParameters());

  // Everything is checked before the first write, so a refused checkpoint
  // leaves the fresh run intact.
  const Status checks[] = {
      nn::CheckTensors(checkpoint.parameters, weights, "parameter"),
      nn::CheckTensors(checkpoint.arch_parameters, theta, "arch parameter"),
      CheckSplitOrders(checkpoint, *pseudo_train, *pseudo_val),
      weight_optimizer->CheckState(checkpoint.weight_optimizer),
      theta_optimizer->CheckState(checkpoint.theta_optimizer)};
  for (const Status& check : checks) {
    if (!check.ok()) return check;
  }

  nn::CopyTensors(checkpoint.parameters, weights);
  nn::CopyTensors(checkpoint.arch_parameters, theta);
  const Status imported[] = {
      weight_optimizer->ImportState(checkpoint.weight_optimizer),
      theta_optimizer->ImportState(checkpoint.theta_optimizer)};
  for (const Status& status : imported) {
    AUTOCTS_CHECK(status.ok()) << status.ToString();
  }
  supernet->SetTemperature(checkpoint.tau);
  rng->SetState(checkpoint.rng);
  *pseudo_train = checkpoint.pseudo_train;
  *pseudo_val = checkpoint.pseudo_val;
  return Status::Ok();
}

}  // namespace autocts::core
