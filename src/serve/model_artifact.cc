#include "serve/model_artifact.h"

#include <algorithm>

#include "common/file_io.h"
#include "common/text_codec.h"
#include "nn/state_dict.h"

namespace autocts::serve {
namespace {

constexpr char kFormatName[] = "autocts-model-artifact";

Status ParseDoubleList(std::string_view text, const std::string& label,
                       int64_t expected, std::vector<double>* out) {
  TokenCursor in(text);
  if (!CountFits(expected, in.bytes_left())) {
    return Status::InvalidArgument("truncated values in: " + label);
  }
  out->assign(expected, 0.0);
  for (double& value : *out) {
    if (!in.Double(&value)) {
      return Status::InvalidArgument("truncated values in: " + label);
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing values in: " + label);
  }
  return Status::Ok();
}

// The geometry fields size the model's weights, and the decoder bounds them
// only from below. The state dict's shapes are bounded by its bytes (the
// count rule of nn::ParseTensorText), so the fields must match them before
// a model is built from the fields.
Status CheckGeometry(const ModelArtifact& artifact) {
  const ArtifactMeta& meta = artifact.meta;
  const auto expect = [&](const std::string& name, const Shape& shape) {
    const Tensor* found = artifact.state.FindParam(name);
    return found != nullptr && found->shape() == shape
               ? Status::Ok()
               : Status::InvalidArgument(
                     "geometry does not match the shape of " + name);
  };
  Status status =
      expect("embedding.weight", {meta.in_features, meta.hidden_dim});
  if (!status.ok()) return status;
  // hidden_dim now matches a parsed shape, so 2 * hidden_dim cannot
  // overflow.
  status =
      expect("head.fc2.weight", {2 * meta.hidden_dim, meta.output_length});
  if (!status.ok()) return status;
  if (!artifact.adjacency.defined()) {
    return expect("adaptive.source_embedding",
                  {meta.num_nodes, graph::kAdaptiveEmbeddingDim});
  }
  if (artifact.adjacency.shape() != Shape{meta.num_nodes, meta.num_nodes}) {
    return Status::InvalidArgument(
        "geometry does not match the shape of the adjacency");
  }
  return Status::Ok();
}

}  // namespace

ModelArtifact MakeModelArtifact(const core::DerivedModel& model,
                                const models::PreparedData& data,
                                int64_t hidden_dim, uint64_t seed) {
  ModelArtifact artifact;
  artifact.meta.num_nodes = data.num_nodes;
  artifact.meta.in_features = data.in_features;
  artifact.meta.input_length = data.window.input_length;
  artifact.meta.output_length = data.window.output_length;
  artifact.meta.horizon = data.window.horizon;
  artifact.meta.target_feature = data.target_feature;
  artifact.meta.hidden_dim = hidden_dim;
  artifact.meta.seed = seed;
  artifact.meta.zero_is_missing = data.zero_is_missing;
  artifact.genotype = model.genotype();
  artifact.scaler = data.scaler.GetState();
  artifact.state = nn::CaptureStateDict(model);
  artifact.adjacency = data.adjacency;
  return artifact;
}

std::string EncodeModelArtifact(const ModelArtifact& artifact) {
  TextWriter writer;
  writer.Add("format", kFormatName);
  writer.AddInt("version", ModelArtifact::kFormatVersion);
  writer.AddInt("num_nodes", artifact.meta.num_nodes);
  writer.AddInt("in_features", artifact.meta.in_features);
  writer.AddInt("input_length", artifact.meta.input_length);
  writer.AddInt("output_length", artifact.meta.output_length);
  writer.AddInt("horizon", artifact.meta.horizon);
  writer.AddInt("target_feature", artifact.meta.target_feature);
  writer.AddInt("hidden_dim", artifact.meta.hidden_dim);
  writer.AddInt("seed", static_cast<int64_t>(artifact.meta.seed));
  writer.AddInt("zero_is_missing", artifact.meta.zero_is_missing ? 1 : 0);

  writer.AddInt("scaler_mask_null", artifact.scaler.mask_null ? 1 : 0);
  writer.Record("scaler_null_value").Double(artifact.scaler.null_value).End();
  writer.AddInt("scaler_features",
                static_cast<int64_t>(artifact.scaler.means.size()));
  for (const auto& [key, values] :
       {std::pair{"scaler_means", &artifact.scaler.means},
        std::pair{"scaler_stddevs", &artifact.scaler.stddevs}}) {
    writer.Record(key);
    for (double value : *values) writer.Double(value);
    writer.End();
  }

  writer.Record("adjacency").Int(artifact.adjacency.defined() ? 1 : 0);
  if (artifact.adjacency.defined()) {
    nn::AppendTensorText(artifact.adjacency, &writer);
  }
  writer.End();

  // The genotype and the state dict nest their records one per line,
  // "genotype = <genotype record>" and "state = <state-dict record>", each
  // run after its count.
  const std::string genotype_text = artifact.genotype.ToText();
  writer.AddInt("genotype_lines",
                std::count(genotype_text.begin(), genotype_text.end(), '\n'));
  for (std::string_view rest = genotype_text; !rest.empty();) {
    writer.Add("genotype", NextLine(&rest));
  }
  writer.AddInt("state_lines", static_cast<int64_t>(
                                   artifact.state.params.size() +
                                   artifact.state.buffers.size()));
  nn::AppendStateDict(artifact.state, "state = ", &writer);

  return SealText(writer.Release());
}

StatusOr<ModelArtifact> DecodeModelArtifact(std::string text) {
  StatusOr<TextReader> parsed = OpenSealedText(
      std::move(text), kFormatName, ModelArtifact::kFormatVersion);
  if (!parsed.ok()) return parsed.status();
  const TextReader& reader = parsed.value();

  ModelArtifact artifact;
  struct IntField {
    const char* key;
    int64_t* out;
    int64_t min;
  };
  int64_t seed = 0;
  int64_t zero_is_missing = 0;
  int64_t mask_null = 0;
  const IntField fields[] = {
      {"num_nodes", &artifact.meta.num_nodes, 1},
      {"in_features", &artifact.meta.in_features, 1},
      {"input_length", &artifact.meta.input_length, 1},
      {"output_length", &artifact.meta.output_length, 1},
      {"horizon", &artifact.meta.horizon, 0},
      {"target_feature", &artifact.meta.target_feature, 0},
      {"hidden_dim", &artifact.meta.hidden_dim, 1},
      {"seed", &seed, 0},
      {"zero_is_missing", &zero_is_missing, 0},
      {"scaler_mask_null", &mask_null, 0},
  };
  for (const IntField& field : fields) {
    StatusOr<int64_t> value = reader.GetInt(field.key);
    if (!value.ok()) return value.status();
    if (value.value() < field.min) {
      return Status::InvalidArgument(std::string("bad value for ") +
                                     field.key);
    }
    *field.out = value.value();
  }
  artifact.meta.seed = static_cast<uint64_t>(seed);
  artifact.meta.zero_is_missing = zero_is_missing != 0;
  artifact.scaler.mask_null = mask_null != 0;
  if (artifact.meta.target_feature >= artifact.meta.in_features) {
    return Status::InvalidArgument("target_feature out of range");
  }

  StatusOr<std::string_view> null_value = reader.Get("scaler_null_value");
  if (!null_value.ok()) return null_value.status();
  if (!ParseExactDouble(null_value.value(), &artifact.scaler.null_value)) {
    return Status::InvalidArgument("bad scaler_null_value: " +
                                   std::string(null_value.value()));
  }
  StatusOr<int64_t> features = reader.GetInt("scaler_features");
  if (!features.ok()) return features.status();
  if (features.value() != artifact.meta.in_features) {
    return Status::InvalidArgument("scaler feature count mismatch");
  }
  Status status;
  for (const auto& [key, values] :
       {std::pair{"scaler_means", &artifact.scaler.means},
        std::pair{"scaler_stddevs", &artifact.scaler.stddevs}}) {
    StatusOr<std::string_view> record = reader.Get(key);
    if (!record.ok()) return record.status();
    status = ParseDoubleList(record.value(), key, features.value(), values);
    if (!status.ok()) return status;
  }

  StatusOr<std::string_view> adjacency = reader.Get("adjacency");
  if (!adjacency.ok()) return adjacency.status();
  {
    TokenCursor in(adjacency.value());
    const std::string_view defined = in.Word();
    if (defined == "1") {
      status = nn::ParseTensorText(in.rest(), "adjacency", &artifact.adjacency);
      if (!status.ok()) return status;
    } else if (defined != "0") {
      return Status::InvalidArgument("malformed adjacency record");
    } else if (!in.AtEnd()) {
      return Status::InvalidArgument("trailing tokens in adjacency record");
    }
  }

  StatusOr<std::vector<std::string_view>> lines =
      reader.GetCounted("genotype_lines", "genotype");
  if (!lines.ok()) return lines.status();
  std::string genotype_text;
  for (const std::string_view line : lines.value()) {
    genotype_text += line;
    genotype_text += '\n';
  }
  StatusOr<core::Genotype> genotype =
      core::Genotype::FromText(std::move(genotype_text));
  if (!genotype.ok()) return genotype.status();
  artifact.genotype = std::move(genotype).value();

  lines = reader.GetCounted("state_lines", "state");
  if (!lines.ok()) return lines.status();
  for (const std::string_view line : lines.value()) {
    status = nn::ParseStateLine(line, &artifact.state);
    if (!status.ok()) return status;
  }
  status = CheckGeometry(artifact);
  if (!status.ok()) return status;
  return artifact;
}

Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path) {
  return AtomicWriteFile(path, EncodeModelArtifact(artifact),
                         /*keep_previous=*/true);
}

StatusOr<ModelArtifact> LoadModelArtifact(const std::string& path) {
  return LoadFile<ModelArtifact>(path, DecodeModelArtifact);
}

StatusOr<ModelArtifact> LoadModelArtifactOrPrev(const std::string& path,
                                                bool* used_prev) {
  return LoadFileOrPrev<ModelArtifact>(path, DecodeModelArtifact, used_prev);
}

StatusOr<std::unique_ptr<core::DerivedModel>> BuildModelFromArtifact(
    const ModelArtifact& artifact) {
  models::ModelContext context;
  context.num_nodes = artifact.meta.num_nodes;
  context.in_features = artifact.meta.in_features;
  context.input_length = artifact.meta.input_length;
  context.output_length = artifact.meta.output_length;
  context.hidden_dim = artifact.meta.hidden_dim;
  context.adjacency = artifact.adjacency;
  context.seed = artifact.meta.seed;
  auto model = std::make_unique<core::DerivedModel>(artifact.genotype, context);
  const Status status = nn::LoadStateDict(model.get(), artifact.state);
  if (!status.ok()) {
    return Status(status.code(),
                  "artifact state dict does not match the genotype's "
                  "architecture: " + status.message());
  }
  model->SetTraining(false);
  return StatusOr<std::unique_ptr<core::DerivedModel>>(std::move(model));
}

}  // namespace autocts::serve
