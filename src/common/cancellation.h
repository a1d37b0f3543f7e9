// Cooperative cancellation and deadlines for the long-running loops
// (JointSearcher, models::Trainer, core::EvalScheduler).
//
// The model is strictly cooperative: nothing here preempts a thread. A
// CancellationToken is a lock-free flag that interested loops poll at their
// step/batch boundaries; whoever wants the work stopped — a SIGINT/SIGTERM
// handler (common/signal_handler.h), a test — calls Cancel() with a reason,
// and the loop notices at its next boundary, finishes cleanly (final
// checkpoint, joined workers), and returns a Status whose code matches the
// reason (kCancelled or kDeadlineExceeded).
//
// Cancel() is async-signal-safe: it performs exactly one lock-free atomic
// store-class operation and touches nothing else, so signal handlers may
// call it directly.
//
// Deadline wraps the same monotonic clock as Stopwatch (SteadyNowNanos,
// FakeClock-compatible), so deadline tests advance virtual time instead of
// sleeping. Polling a token or a deadline reads no mutable search state:
// the checks are bit-transparent, and a run that is never interrupted is
// byte-identical with or without them.
#ifndef AUTOCTS_COMMON_CANCELLATION_H_
#define AUTOCTS_COMMON_CANCELLATION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"
#include "common/stopwatch.h"

namespace autocts {

// Why a token was cancelled; decides the Status code the interrupted loop
// returns (and therefore the CLI exit code).
enum class CancelReason : int {
  kNone = 0,
  kShutdown = 1,  // signal-driven or caller-requested stop -> kCancelled
  kDeadline = 2,  // wall/step budget exceeded -> kDeadlineExceeded
};

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  // Requests cancellation. The first reason wins: a deadline firing after
  // a shutdown request (or vice versa) does not change what the loops
  // report. Async-signal-safe.
  void Cancel(CancelReason reason = CancelReason::kShutdown) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
  }

  bool cancelled() const {
    return reason_.load(std::memory_order_acquire) != 0;
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  // Clears the token for reuse (tests; never called while loops poll it).
  void Reset() { reason_.store(0, std::memory_order_release); }

  // The Status an interrupted loop should return: Cancelled for shutdown,
  // DeadlineExceeded for a deadline, with `context` naming where the work
  // stopped. CHECK-free: an uncancelled token maps to kCancelled (callers
  // only ask after cancelled() returned true).
  Status ToStatus(const std::string& context) const {
    if (reason() == CancelReason::kDeadline) {
      return Status::DeadlineExceeded(context);
    }
    return Status::Cancelled(context);
  }

 private:
  std::atomic<int> reason_{0};
};

// Absolute point on the SteadyNowNanos timeline. Value-semantic and
// trivially copyable; Infinite() never expires.
class Deadline {
 public:
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  // Expires `seconds` from now (non-positive -> already expired).
  static Deadline After(double seconds) {
    Deadline deadline;
    deadline.nanos_ = SteadyNowNanos() + static_cast<int64_t>(seconds * 1e9);
    return deadline;
  }

  // Infinite when `seconds` <= 0, After(seconds) otherwise — the "0 means
  // no budget" convention every config knob uses.
  static Deadline AfterBudget(double seconds) {
    return seconds > 0.0 ? After(seconds) : Infinite();
  }

  bool infinite() const {
    return nanos_ == std::numeric_limits<int64_t>::max();
  }
  bool expired() const { return !infinite() && SteadyNowNanos() >= nanos_; }

  double remaining_seconds() const {
    if (infinite()) return std::numeric_limits<double>::infinity();
    return static_cast<double>(nanos_ - SteadyNowNanos()) * 1e-9;
  }

  int64_t nanos() const { return nanos_; }

 private:
  int64_t nanos_ = std::numeric_limits<int64_t>::max();
};

// The one boundary check the loops share: cancellation first (an explicit
// request outranks a budget), then the wall deadline, then the step budget
// (`steps_done` against `step_budget`, 0 = no budget). Returns Ok when the
// loop should keep going.
inline Status CheckInterrupt(const CancellationToken* cancel,
                             const Deadline& deadline, int64_t steps_done,
                             int64_t step_budget, const std::string& context) {
  if (cancel != nullptr && cancel->cancelled()) {
    return cancel->ToStatus(context + ": cancelled");
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded(context + ": wall budget exhausted");
  }
  if (step_budget > 0 && steps_done >= step_budget) {
    return Status::DeadlineExceeded(
        context + ": step budget exhausted after " +
        std::to_string(steps_done) + " steps");
  }
  return Status::Ok();
}

}  // namespace autocts

#endif  // AUTOCTS_COMMON_CANCELLATION_H_
