// Deterministic fault injection and retry policies for the I/O layer.
//
// Long unattended searches must survive infrastructure hiccups — a full
// disk, a flaky filesystem, a short write — not just numerical ones. This
// module provides the two halves of that resilience story:
//
//  * A *fault plan*: a deterministic, env/CLI-configurable schedule of
//    injected I/O failures, e.g.
//
//        AUTOCTS_FAULTS="write:ENOSPC@3,rename:EIO@1"
//
//    "the 3rd write fails with ENOSPC, the 1st rename fails with EIO".
//    Every fault-injectable primitive in common/file_io.cc calls
//    fault::Consume(op) at its seam; when the per-op call counter matches a
//    scheduled ordinal the primitive fails exactly as the real syscall
//    would (errno set, partial state cleaned up). Because the schedule is a
//    pure function of call ordinals — never of time or threads — a test
//    that injects ENOSPC at write 3 fails at write 3 on every machine.
//
//    Grammar (comma-separated specs):
//        <op>:<kind>@<ordinal>[x<count>]
//      op      write | open | close | rename | read | unlink
//      kind    a symbolic errno (ENOSPC, EIO, EDQUOT, EROFS, EACCES,
//              EMFILE, ENOENT) or SHORT (write only: a short write that
//              persists a truncated prefix before failing)
//      ordinal 1-based index of the failing call, counted per op since the
//              plan was installed
//      count   number of consecutive calls to fail (default 1), so
//              "write:ENOSPC@1x2" exercises fail-fail-succeed retry paths
//
//  * A *retry policy*: bounded attempts with deterministic exponential
//    backoff. The backoff is FakeClock-compatible: while a FakeClock
//    (common/stopwatch.h) is installed, it advances virtual time instead
//    of blocking, so retry tests read exact backoff sequences off the
//    clock without real sleeps. RetryCall() wraps any Status-returning
//    operation; the searcher, the eval scheduler and the CLI wrap their
//    checkpoint, artifact and metrics-sink writes in it.
//
// Thread safety: the installed plan and the I/O stats counters are guarded
// for concurrent access (eval-scheduler workers and the driver thread all
// write checkpoints/sinks). Library code never installs a plan on its own;
// only the CLI (--faults / AUTOCTS_FAULTS) and tests do.
#ifndef AUTOCTS_COMMON_FAULT_H_
#define AUTOCTS_COMMON_FAULT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace autocts::fault {

// One scheduled failure window for one operation.
struct FaultSpec {
  std::string op;           // write | open | close | rename | read | unlink
  int error_number = 0;     // errno to inject (0 for SHORT)
  bool short_write = false; // SHORT kind: persist a prefix, then fail
  int64_t first_call = 1;   // 1-based ordinal of the first failing call
  int64_t count = 1;        // consecutive calls to fail
};

struct FaultPlan {
  std::vector<FaultSpec> faults;
  bool empty() const { return faults.empty(); }
};

// Parses the AUTOCTS_FAULTS grammar documented above. An empty string
// yields an empty plan.
StatusOr<FaultPlan> ParseFaultPlan(const std::string& text);

// Renders a plan back to its grammar (for logging; round-trips Parse).
std::string FormatFaultPlan(const FaultPlan& plan);

// Installs `plan` as the process-wide schedule, resetting every per-op call
// counter. An empty plan is equivalent to ClearFaultPlan().
void InstallFaultPlan(FaultPlan plan);
void ClearFaultPlan();
bool FaultPlanActive();

// Reads AUTOCTS_FAULTS and installs the parsed plan. Unset/empty env is a
// no-op returning Ok; a malformed spec returns the parse error (and
// installs nothing).
Status InstallFaultPlanFromEnv();

// The injection seam called by the I/O primitives: advances op's call
// counter and returns the fault scheduled for this call, if any. Returns
// nullopt always when no plan is installed (one relaxed atomic load — the
// no-fault hot path stays negligible, see bench/bench_fault_overhead.cc).
struct InjectedFault {
  int error_number = 0;
  bool short_write = false;
};
std::optional<InjectedFault> Consume(const char* op);

// RAII plan installer for test scopes.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan);
  explicit ScopedFaultPlan(const std::string& spec);  // CHECK-fails on parse error
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

// ---------------------------------------------------------------------------
// Process-wide I/O resilience stats (observability + tests; the metrics
// schemas record their own per-run registry counters from RetryOutcome).
// ---------------------------------------------------------------------------

struct IoStats {
  int64_t injected_faults = 0;  // faults fired by the plan
  int64_t retries = 0;          // RetryCall re-attempts after a failure
  int64_t failures = 0;         // RetryCall gave up (budget exhausted)
};
IoStats GetIoStats();
void ResetIoStats();

// ---------------------------------------------------------------------------
// Retry policy.
// ---------------------------------------------------------------------------

// Deterministic exponential backoff before attempt k (k >= 2):
//   min(kInitialBackoffSeconds * kBackoffMultiplier^(k-2),
//       kMaxBackoffSeconds) seconds.
inline constexpr double kInitialBackoffSeconds = 0.01;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr double kMaxBackoffSeconds = 1.0;

struct RetryPolicy {
  // Total attempts including the first (1 = no retry). Values < 1 behave
  // as 1.
  int64_t max_attempts = 3;
};

// Backoff before attempt `attempt` (2-based; attempt 1 never sleeps).
double BackoffSeconds(int64_t attempt);

// Sleeps `seconds`; advances the FakeClock instead when one is installed.
void SleepForBackoff(double seconds);

struct RetryOutcome {
  Status status = Status::Ok();  // last attempt's status
  int64_t attempts = 1;          // attempts actually made
  int64_t retries() const { return attempts - 1; }
};

// Runs `fn` under the policy: returns on the first Ok (or non-retryable)
// status, otherwise backs off and retries until the attempt budget is
// exhausted. Retries are counted into the process IoStats; `what` names
// the operation in the retry-warning log lines.
RetryOutcome RetryCall(const RetryPolicy& policy, const std::string& what,
                       const std::function<Status()>& fn);

// I/O statuses worth retrying: transient filesystem failures (kInternal,
// kUnavailable). Malformed input (kInvalidArgument), missing files
// (kNotFound), and logic errors are not — retrying cannot fix them.
bool IsRetryableIoError(const Status& status);

}  // namespace autocts::fault

#endif  // AUTOCTS_COMMON_FAULT_H_
