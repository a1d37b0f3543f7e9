#include "core/search_checkpoint.h"

#include <sstream>

#include "common/file_io.h"
#include "common/numerics.h"
#include "common/text_codec.h"
#include "nn/state_dict.h"

namespace autocts::core {
namespace {

constexpr char kFormatName[] = "autocts-search-checkpoint";

void AppendAdamState(TextWriter* writer, const std::string& key,
                     const optim::AdamState& state) {
  writer->Record(key).Int(state.step_count).Int(state.first_moment.size());
  writer->End();
  for (size_t slot = 0; slot < state.first_moment.size(); ++slot) {
    for (const auto& [suffix, moment] :
         {std::pair{"_m", &state.first_moment[slot]},
          std::pair{"_v", &state.second_moment[slot]}}) {
      writer->Record(key + suffix).Int(slot).Int(moment->defined() ? 1 : 0);
      if (moment->defined()) nn::AppendTensorText(*moment, writer);
      writer->End();
    }
  }
}

Status ParseMomentRecords(const TextReader& reader, const std::string& key,
                          int64_t slots, std::vector<Tensor>* out) {
  const std::vector<std::string_view> records = reader.GetAll(key);
  if (static_cast<int64_t>(records.size()) != slots) {
    return Status::InvalidArgument(
        key + " record count mismatch: expected " + std::to_string(slots) +
        ", found " + std::to_string(records.size()));
  }
  out->assign(slots, Tensor());
  std::vector<bool> seen(slots, false);
  for (const std::string_view record : records) {
    TokenCursor in(record);
    int64_t slot = 0;
    int64_t defined = 0;
    if (!in.Int(&slot) || slot < 0 || slot >= slots || !in.Int(&defined) ||
        (defined != 0 && defined != 1) || seen[slot]) {
      return Status::InvalidArgument("malformed " + key +
                                     " record: " + std::string(record));
    }
    seen[slot] = true;
    if (defined == 1) {
      const Status status = nn::ParseTensorText(in.rest(), key, &(*out)[slot]);
      if (!status.ok()) return status;
    } else if (!in.AtEnd()) {
      return Status::InvalidArgument("trailing tokens in record: " + key);
    }
  }
  return Status::Ok();
}

Status ParseAdamState(const TextReader& reader, const std::string& key,
                      optim::AdamState* out) {
  StatusOr<std::string_view> header = reader.Get(key);
  if (!header.ok()) return header.status();
  TokenCursor in(header.value());
  int64_t slots = 0;
  if (!in.Int(&out->step_count) || !in.Int(&slots) || out->step_count < 0 ||
      slots < 0 || !in.AtEnd()) {
    return Status::InvalidArgument("malformed " + key +
                                   " header: " + std::string(header.value()));
  }
  Status status =
      ParseMomentRecords(reader, key + "_m", slots, &out->first_moment);
  if (!status.ok()) return status;
  return ParseMomentRecords(reader, key + "_v", slots, &out->second_moment);
}

Status ParseIndexOrder(const TextReader& reader, const std::string& key,
                       std::vector<int64_t>* out) {
  StatusOr<std::string_view> record = reader.Get(key);
  if (!record.ok()) return record.status();
  TokenCursor in(record.value());
  int64_t n = 0;
  if (!in.Int(&n) || !CountFits(n, in.bytes_left())) {
    return Status::InvalidArgument("malformed " + key + " record");
  }
  out->assign(n, 0);
  for (int64_t& index : *out) {
    if (!in.Int(&index) || index < 0) {
      return Status::InvalidArgument("truncated " + key + " record");
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing tokens in record: " + key);
  }
  return Status::Ok();
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
  TextWriter writer;
  writer.Add("format", kFormatName);
  writer.AddInt("version", SearchCheckpoint::kFormatVersion);
  writer.Add("config", checkpoint.config_fingerprint);
  writer.Record("cursor").Int(checkpoint.epoch).Int(checkpoint.step).End();
  writer.Record("tau").Double(checkpoint.tau).End();
  writer.Record("val_loss")
      .Double(checkpoint.val_loss_sum)
      .Int(checkpoint.epoch_steps)
      .Double(checkpoint.final_validation_loss)
      .End();
  writer.Record("rng");
  for (uint64_t word : checkpoint.rng.words) writer.Int(word);
  writer.Int(checkpoint.rng.has_cached_normal ? 1 : 0)
      .Double(checkpoint.rng.cached_normal)
      .End();
  for (const auto& [key, order] :
       {std::pair{"order_train", &checkpoint.pseudo_train},
        std::pair{"order_val", &checkpoint.pseudo_val}}) {
    writer.Record(key).Int(order->size());
    for (int64_t index : *order) writer.Int(index);
    writer.End();
  }
  for (const auto& [key, tensors] :
       {std::pair{"param", &checkpoint.parameters},
        std::pair{"arch", &checkpoint.arch_parameters}}) {
    writer.AddInt(std::string(key) + "_count",
                  static_cast<int64_t>(tensors->size()));
    nn::AppendTensorRecords(key, *tensors, &writer);
  }
  AppendAdamState(&writer, "adam_w", checkpoint.weight_optimizer);
  AppendAdamState(&writer, "adam_t", checkpoint.theta_optimizer);
  // Metrics state rides along as repeated single-line records so the
  // line-oriented reader (and the byte-flip corruption sweep) treat it
  // like any other payload. Zero lines — not an absent record — is the
  // "metrics off" encoding; absence only occurs in pre-observability
  // files, which still decode.
  std::vector<std::string_view> metric_lines;
  for (std::string_view rest = checkpoint.metrics_state; !rest.empty();) {
    const std::string_view line = NextLine(&rest);
    if (!line.empty()) metric_lines.push_back(line);
  }
  writer.AddInt("metrics_count", static_cast<int64_t>(metric_lines.size()));
  for (const std::string_view line : metric_lines) writer.Add("metrics", line);
  return SealText(writer.Release());
}

StatusOr<SearchCheckpoint> DecodeSearchCheckpoint(std::string text) {
  StatusOr<TextReader> parsed = OpenSealedText(
      std::move(text), kFormatName, SearchCheckpoint::kFormatVersion);
  if (!parsed.ok()) return parsed.status();
  const TextReader& reader = parsed.value();

  SearchCheckpoint checkpoint;
  StatusOr<std::string_view> config = reader.Get("config");
  if (!config.ok()) return config.status();
  checkpoint.config_fingerprint = config.value();

  StatusOr<std::string_view> cursor = reader.Get("cursor");
  if (!cursor.ok()) return cursor.status();
  {
    TokenCursor in(cursor.value());
    if (!in.Int(&checkpoint.epoch) || !in.Int(&checkpoint.step) ||
        checkpoint.epoch < 0 || checkpoint.step < 0 || !in.AtEnd()) {
      return Status::InvalidArgument("malformed cursor: " +
                                     std::string(cursor.value()));
    }
  }

  StatusOr<std::string_view> tau = reader.Get("tau");
  if (!tau.ok()) return tau.status();
  if (!ParseExactDouble(tau.value(), &checkpoint.tau)) {
    return Status::InvalidArgument("malformed tau: " +
                                   std::string(tau.value()));
  }

  StatusOr<std::string_view> val_loss = reader.Get("val_loss");
  if (!val_loss.ok()) return val_loss.status();
  {
    TokenCursor in(val_loss.value());
    if (!in.Double(&checkpoint.val_loss_sum) ||
        !in.Int(&checkpoint.epoch_steps) || checkpoint.epoch_steps < 0 ||
        !in.Double(&checkpoint.final_validation_loss) || !in.AtEnd()) {
      return Status::InvalidArgument("malformed val_loss: " +
                                     std::string(val_loss.value()));
    }
  }

  StatusOr<std::string_view> rng = reader.Get("rng");
  if (!rng.ok()) return rng.status();
  {
    TokenCursor in(rng.value());
    bool ok = true;
    for (uint64_t& word : checkpoint.rng.words) ok = ok && in.Int(&word);
    int64_t has_cached = 0;
    if (!ok || !in.Int(&has_cached) || (has_cached != 0 && has_cached != 1) ||
        !in.Double(&checkpoint.rng.cached_normal) || !in.AtEnd()) {
      return Status::InvalidArgument("malformed rng record: " +
                                     std::string(rng.value()));
    }
    checkpoint.rng.has_cached_normal = has_cached == 1;
  }

  Status status =
      ParseIndexOrder(reader, "order_train", &checkpoint.pseudo_train);
  if (!status.ok()) return status;
  status = ParseIndexOrder(reader, "order_val", &checkpoint.pseudo_val);
  if (!status.ok()) return status;

  for (const auto& [key, tensors] :
       {std::pair{"param", &checkpoint.parameters},
        std::pair{"arch", &checkpoint.arch_parameters}}) {
    StatusOr<std::vector<std::string_view>> records =
        reader.GetCounted(std::string(key) + "_count", key);
    if (!records.ok()) return records.status();
    for (const std::string_view record : records.value()) {
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
  if (reader.Get("metrics_count").ok()) {
    StatusOr<std::vector<std::string_view>> lines =
        reader.GetCounted("metrics_count", "metrics");
    if (!lines.ok()) return lines.status();
    for (size_t i = 0; i < lines.value().size(); ++i) {
      if (i > 0) checkpoint.metrics_state += '\n';
      checkpoint.metrics_state += lines.value()[i];
    }
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
