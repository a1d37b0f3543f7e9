#include "optim/lr_schedule.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace autocts::optim {

ExponentialSchedule::ExponentialSchedule(double initial, double gamma,
                                         double floor)
    : initial_(initial), gamma_(gamma), floor_(floor) {
  AUTOCTS_CHECK_GT(gamma, 0.0);
}

double ExponentialSchedule::At(int64_t epoch) const {
  AUTOCTS_CHECK_GE(epoch, 0);
  return std::max(floor_, initial_ * std::pow(gamma_, static_cast<double>(epoch)));
}

}  // namespace autocts::optim
