// Crash-safe serialization of the joint searcher's complete mutable state.
//
// A SearchCheckpoint captures *every* bit of state that influences the
// remainder of a `JointSearcher::Search` run: supernet weights, the
// architecture parameters Theta (alpha/beta/gamma), both Adam optimizers'
// step counters and first/second moments, the search Rng, the temperature
// tau, the pseudo-train/-validation index orders, the per-epoch validation
// loss accumulator, and the epoch/batch cursor. Because the tensor kernels
// are bit-identical across thread counts (see DESIGN.md "Threading model"),
// a run killed at any checkpoint boundary and resumed produces the exact
// genotype and final validation loss of an uninterrupted run; the
// fault-injection suite in tests/checkpoint_test.cc enforces this.
//
// On-disk format (a common/text_codec document; tensors use the
// nn/state_dict tensor text):
//
//   format = autocts-search-checkpoint
//   version = 1
//   config = <fingerprint of the SearchOptions + data extents>
//   cursor = <next_epoch> <next_step>
//   tau = <hex-float>
//   val_loss = <sum hex-float> <epoch_steps> <final hex-float>
//   rng = <w0> <w1> <w2> <w3> <has_cached 0|1> <cached hex-float>
//   order_train = <n> <i0> <i1> ...
//   order_val = <n> <i0> <i1> ...
//   param_count = <P>
//   param = <name> <ndim> <dim...> <hex-float values...>       (x P)
//   arch_count = <A>
//   arch = <name> <ndim> <dim...> <hex-float values...>        (x A)
//   adam_w = <step_count> <slots>
//   adam_w_m = <slot> <defined 0|1> [<ndim> <dim...> <values...>]
//   adam_w_v = ...                                             (x slots each)
//   adam_t / adam_t_m / adam_t_v = ...
//   crc32 = <8 hex digits over every preceding byte>
//
// All doubles use the exact hex-float codec (common/text_codec.h), so a
// load restores bit-identical values. The document is sealed
// (common/file_io.h): the strict CRC trailer makes any truncation or byte
// flip an InvalidArgument load failure, and every count is checked against
// its record before anything is allocated. Files are written via the atomic
// rename protocol, which retains the previous generation at "<path>.prev"
// as a fallback.
#ifndef AUTOCTS_CORE_SEARCH_CHECKPOINT_H_
#define AUTOCTS_CORE_SEARCH_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/searcher.h"
#include "core/supernet.h"
#include "nn/state_dict.h"
#include "optim/adam.h"

namespace autocts::core {

struct SearchCheckpoint {
  static constexpr int64_t kFormatVersion = 1;

  // Fingerprint of the search configuration the state belongs to; resume
  // refuses to restore into a differently-configured searcher.
  std::string config_fingerprint;

  // Cursor: the next (epoch, step) the resumed run executes. step == 0
  // means the epoch preamble (temperature + shuffles) has not run yet.
  int64_t epoch = 0;
  int64_t step = 0;

  double tau = 1.0;
  // Per-epoch validation loss accumulator at the cursor.
  double val_loss_sum = 0.0;
  int64_t epoch_steps = 0;
  // Last fully-computed epoch average (the SearchResult field).
  double final_validation_loss = 0.0;

  RngState rng;
  std::vector<int64_t> pseudo_train;
  std::vector<int64_t> pseudo_val;

  // Supernet weights by dotted parameter name, and Theta by arch name, in
  // the supernet's order.
  nn::NamedTensors parameters;
  nn::NamedTensors arch_parameters;

  optim::AdamState weight_optimizer;
  optim::AdamState theta_optimizer;

  // Serialized obs::MetricsRegistry state (EncodeState) captured at the
  // cursor, so metrics rows survive crash/resume. Optional on disk
  // (absent in pre-observability files and when metrics are off) and
  // excluded from CheckpointNumericHealth: it is derived telemetry, never
  // an input to the search trajectory.
  std::string metrics_state;
};

// Deterministic fingerprint of everything that shapes the search trajectory
// (options, supernet dimensions, operator set, data extents).
std::string SearchConfigFingerprint(const SearchOptions& options,
                                    int64_t num_train_samples);

// Text codec. Encode always succeeds; Decode returns a non-OK Status on any
// CRC mismatch, truncation, or malformed record — it never crashes and
// never returns a partially-parsed checkpoint.
std::string EncodeSearchCheckpoint(const SearchCheckpoint& checkpoint);
StatusOr<SearchCheckpoint> DecodeSearchCheckpoint(std::string text);

// File wrappers. Save uses AtomicWriteFile (temp + rename, previous
// generation kept at "<path>.prev").
Status SaveSearchCheckpoint(const SearchCheckpoint& checkpoint,
                            const std::string& path);
StatusOr<SearchCheckpoint> LoadSearchCheckpoint(const std::string& path);

// Loads `path`, falling back to "<path>.prev" when the primary generation
// is missing or corrupt. `used_prev` (optional) reports which one loaded.
StatusOr<SearchCheckpoint> LoadSearchCheckpointOrPrev(const std::string& path,
                                                      bool* used_prev);

// Snapshots the searcher's live state into a checkpoint (cursor and loss
// fields are left for the caller to fill in); weights and Theta through
// nn::CaptureTensors.
SearchCheckpoint CaptureSearchState(const Supernet& supernet,
                                    const optim::Adam& weight_optimizer,
                                    const optim::Adam& theta_optimizer,
                                    const Rng& rng,
                                    const std::vector<int64_t>& pseudo_train,
                                    const std::vector<int64_t>& pseudo_val);

// Scans every numeric field of a checkpoint — tau, the loss accumulators,
// all weight and Theta tensors, and the defined Adam moment slots — and
// returns a non-OK Status naming the first non-finite one. The searcher
// refuses to write an unhealthy generation and refuses to resume from one
// (falling back to "<path>.prev"), so surviving on-disk generations are
// always last-good.
Status CheckpointNumericHealth(const SearchCheckpoint& checkpoint);

// Restores a checkpoint into live searcher state. Validates weights and
// Theta (nn::CheckTensors), the split orders and both optimizers' slots
// before the first write, so a failed restore leaves the searcher in its
// freshly-initialized state.
Status RestoreSearchState(const SearchCheckpoint& checkpoint,
                          Supernet* supernet, optim::Adam* weight_optimizer,
                          optim::Adam* theta_optimizer, Rng* rng,
                          std::vector<int64_t>* pseudo_train,
                          std::vector<int64_t>* pseudo_val);

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_SEARCH_CHECKPOINT_H_
