// Versioned on-disk bundle of everything needed to serve forecasts from a
// derived architecture without the training pipeline: the genotype, the
// trained weights (parameters + non-trainable buffers such as BatchNorm
// running statistics), the fitted normalization scaler, and the dataset
// window geometry. Like the checkpoints it is a sealed "key = value"
// document (common/file_io.h) whose last line is a CRC32 trailer over every
// preceding byte, written via AtomicWriteFile so a crash leaves either the
// old generation at `path`, the new one, or the old one at "<path>.prev" —
// never a torn file.
//
// Round-trip contract: a model rebuilt from a loaded artifact produces
// forecasts bit-identical to the exported model's (eval mode, same input).
#ifndef AUTOCTS_SERVE_MODEL_ARTIFACT_H_
#define AUTOCTS_SERVE_MODEL_ARTIFACT_H_

#include <memory>
#include <string>

#include "core/derived_model.h"
#include "data/scaler.h"
#include "models/trainer.h"
#include "nn/state_dict.h"

namespace autocts::serve {

// Dataset/window geometry the model was trained with — enough to rebuild
// the ModelContext and to validate incoming raw windows at serve time.
struct ArtifactMeta {
  int64_t num_nodes = 0;
  int64_t in_features = 0;
  int64_t input_length = 0;   // P
  int64_t output_length = 0;  // Q
  int64_t horizon = 0;        // single-step forecast offset (0 = multi-step)
  int64_t target_feature = 0;
  int64_t hidden_dim = 0;
  uint64_t seed = 0;          // init seed the model was built with
  bool zero_is_missing = false;
};

struct ModelArtifact {
  static constexpr int64_t kFormatVersion = 1;

  ArtifactMeta meta;
  core::Genotype genotype;
  data::StandardScaler::State scaler;
  // The trained model's parameters and buffers.
  nn::StateDict state;
  // Predefined adjacency; undefined when the graph is learned (the rebuilt
  // model then re-registers its adaptive adjacency, whose embeddings are
  // restored from the state dict).
  Tensor adjacency;
};

// Bundles a trained model with the data it was trained on. The scaler,
// window geometry, and adjacency come from `data`; weights and buffers are
// captured with nn::CaptureStateDict.
ModelArtifact MakeModelArtifact(const core::DerivedModel& model,
                                const models::PreparedData& data,
                                int64_t hidden_dim, uint64_t seed);

// Text codec. The state dict travels as its text records, one `state`
// line each after a `state_lines` count. Decode rejects any corruption: a
// flipped byte or truncation anywhere fails the CRC trailer check before
// field parsing begins. It then parses every field, the state records
// straight into tensors, and checks the geometry fields against the state
// dict's shapes (and num_nodes against the adjacency), so the model of
// every artifact that decodes is sized by bytes the file holds.
std::string EncodeModelArtifact(const ModelArtifact& artifact);
StatusOr<ModelArtifact> DecodeModelArtifact(std::string text);

// File wrappers: atomic write (previous generation kept as "<path>.prev"),
// load, and load-with-fallback (LoadFileOrPrev in common/file_io.h).
Status SaveModelArtifact(const ModelArtifact& artifact,
                         const std::string& path);
StatusOr<ModelArtifact> LoadModelArtifact(const std::string& path);
StatusOr<ModelArtifact> LoadModelArtifactOrPrev(const std::string& path,
                                                bool* used_prev = nullptr);

// Rebuilds the derived model from a made or decoded artifact: fresh
// DerivedModel from the genotype + geometry, trained state copied in with
// nn::LoadStateDict (InvalidArgument when it does not match the genotype's
// architecture), switched to eval mode. Parses no text.
StatusOr<std::unique_ptr<core::DerivedModel>> BuildModelFromArtifact(
    const ModelArtifact& artifact);

}  // namespace autocts::serve

#endif  // AUTOCTS_SERVE_MODEL_ARTIFACT_H_
