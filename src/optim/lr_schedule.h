// Learning-rate schedules and the exponential temperature annealing used by
// the AutoCTS search (Section 3.2.2: tau starts at 5.0 and is multiplied by
// 0.9 per epoch until it reaches 0.001).
#ifndef AUTOCTS_OPTIM_LR_SCHEDULE_H_
#define AUTOCTS_OPTIM_LR_SCHEDULE_H_

#include <cstdint>

namespace autocts::optim {

// Multiplies the base value by gamma^epoch, optionally clamped at a floor.
class ExponentialSchedule {
 public:
  ExponentialSchedule(double initial, double gamma, double floor = 0.0);

  // Value at the given 0-based epoch.
  double At(int64_t epoch) const;

 private:
  double initial_;
  double gamma_;
  double floor_;
};

}  // namespace autocts::optim

#endif  // AUTOCTS_OPTIM_LR_SCHEDULE_H_
