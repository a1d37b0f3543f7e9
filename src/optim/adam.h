// Adam optimizer (Kingma & Ba, 2014) with decoupled-style weight decay
// applied as L2 on the gradient, matching the paper's training setup
// (Section 4.1.4: distinct lr / betas / weight decay for architecture
// parameters Theta and network weights w).
#ifndef AUTOCTS_OPTIM_ADAM_H_
#define AUTOCTS_OPTIM_ADAM_H_

#include <vector>

#include "common/status.h"
#include "optim/optimizer.h"

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

class Adam : public Optimizer {
 public:
  struct Options {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(std::vector<Variable> parameters, Options options);

  void Step() override;

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
  Options options_;
  int64_t step_count_ = 0;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
};

}  // namespace autocts::optim

#endif  // AUTOCTS_OPTIM_ADAM_H_
