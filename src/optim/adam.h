// Adam optimizer (Kingma & Ba, 2014) with decoupled-style weight decay
// applied as L2 on the gradient, matching the paper's training setup
// (Section 4.1.4: distinct lr / betas / weight decay for architecture
// parameters Theta and network weights w).
#ifndef AUTOCTS_OPTIM_ADAM_H_
#define AUTOCTS_OPTIM_ADAM_H_

#include <vector>

#include "autograd/variable.h"
#include "common/status.h"

namespace autocts::optim {

// The complete mutable state of an Adam instance: the step counter driving
// bias correction and the per-parameter moment estimates. Moment slots stay
// undefined until the matching parameter first receives a gradient (lazy
// initialization), and that defined/undefined pattern is part of the state.
// Serialized by core/search_checkpoint.{h,cc} for crash-safe search resume.
struct AdamState {
  int64_t step_count = 0;
  std::vector<Tensor> first_moment;   // slot-aligned with the parameter list
  std::vector<Tensor> second_moment;  // undefined entry = slot never stepped
};

// Owns handles (shared aliases) to the parameters it steps.
class Adam {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<Variable> parameters, Options options);

  // Applies one update using the accumulated gradients; parameters with no
  // gradient are skipped.
  void Step();

  // Clears all accumulated gradients.
  void ZeroGrad();

  // Replaces the learning rate (the recovery policy's backoff).
  void SetLearningRate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }

  // Deep-copies the optimizer state (moments + step count).
  AdamState ExportState() const;
  // Validates `state` against the parameter list (slot count, moment pairs
  // and shapes, step count) without writing anything.
  Status CheckState(const AdamState& state) const;
  // Restores a previously exported state. Runs CheckState before mutating
  // anything, so a failed import leaves the optimizer untouched. The next
  // Step() after a successful import is bit-identical to the step the
  // exporting optimizer would have taken (including the step-count bias
  // correction).
  Status ImportState(const AdamState& state);

  int64_t step_count() const { return step_count_; }

 private:
  std::vector<Variable> parameters_;
  Options options_;
  double learning_rate_;
  int64_t step_count_ = 0;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
};

// Rescales all gradients so their global L2 norm is at most `max_norm` and
// reports whether the step is safe to apply: returns true when the
// pre-clip norm was finite (gradients clipped as usual), false when it was
// NaN or +-Inf (gradients untouched, since scaling cannot repair them; the
// caller must skip the optimizer step — see common/numerics.h for the
// recovery policy built on top). `pre_clip_norm` (optional) receives the
// norm.
bool ClipGradNormChecked(const std::vector<Variable>& parameters,
                         double max_norm, double* pre_clip_norm = nullptr);

}  // namespace autocts::optim

#endif  // AUTOCTS_OPTIM_ADAM_H_
