#include "common/fault.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/text_codec.h"

namespace autocts::fault {
namespace {

// Symbolic errno table for the plan grammar. Small and explicit: only the
// failures a filesystem can realistically hand back to checkpoint I/O.
struct ErrnoName {
  const char* name;
  int value;
};
constexpr ErrnoName kErrnoNames[] = {
    {"ENOSPC", ENOSPC}, {"EIO", EIO},       {"EDQUOT", EDQUOT},
    {"EROFS", EROFS},   {"EACCES", EACCES}, {"EMFILE", EMFILE},
    {"ENOENT", ENOENT},
};

const char* ErrnoToName(int value) {
  for (const ErrnoName& entry : kErrnoNames) {
    if (entry.value == value) return entry.name;
  }
  return nullptr;
}

bool IsKnownOp(const std::string& op) {
  return op == "write" || op == "open" || op == "close" || op == "rename" ||
         op == "read" || op == "unlink";
}

// Installed plan + per-op call counters, guarded by one mutex. `g_active`
// is the lock-free fast-path guard: the no-fault path pays one relaxed
// load and nothing else.
std::atomic<bool> g_active{false};
std::mutex g_mutex;
FaultPlan g_plan;                          // guarded by g_mutex
std::map<std::string, int64_t> g_counters; // guarded by g_mutex

std::atomic<int64_t> g_injected{0};
std::atomic<int64_t> g_retries{0};
std::atomic<int64_t> g_failures{0};

}  // namespace

StatusOr<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  for (const std::string& raw : SplitString(text, ',')) {
    const std::string spec(StripWhitespace(raw));
    if (spec.empty()) continue;
    const auto malformed = [&spec](const std::string& why) {
      return Status::InvalidArgument("malformed fault spec \"" + spec +
                                     "\": " + why +
                                     " (grammar: op:KIND@ordinal[xcount])");
    };
    const size_t colon = spec.find(':');
    const size_t at = spec.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      return malformed("expected op:KIND@ordinal");
    }
    FaultSpec fault;
    fault.op = StripWhitespace(spec.substr(0, colon));
    if (!IsKnownOp(fault.op)) {
      return malformed("unknown op \"" + fault.op +
                       "\" (write|open|close|rename|read|unlink)");
    }
    const std::string kind(
        StripWhitespace(spec.substr(colon + 1, at - colon - 1)));
    if (kind == "SHORT") {
      if (fault.op != "write") return malformed("SHORT applies to write only");
      fault.short_write = true;
      fault.error_number = EIO;  // what a real short write surfaces as
    } else {
      fault.error_number = 0;
      for (const ErrnoName& entry : kErrnoNames) {
        if (kind == entry.name) {
          fault.error_number = entry.value;
          break;
        }
      }
      if (fault.error_number == 0) {
        return malformed("unknown kind \"" + kind +
                         "\" (symbolic errno or SHORT)");
      }
    }
    std::string ordinal_text(StripWhitespace(spec.substr(at + 1)));
    const size_t x = ordinal_text.find('x');
    if (x != std::string::npos) {
      char* end = nullptr;
      const std::string count_text = ordinal_text.substr(x + 1);
      fault.count = std::strtoll(count_text.c_str(), &end, 10);
      if (end == count_text.c_str() || *end != '\0' || fault.count < 1) {
        return malformed("bad repeat count \"" + count_text + "\"");
      }
      ordinal_text = ordinal_text.substr(0, x);
    }
    char* end = nullptr;
    fault.first_call = std::strtoll(ordinal_text.c_str(), &end, 10);
    if (end == ordinal_text.c_str() || *end != '\0' || fault.first_call < 1) {
      return malformed("bad ordinal \"" + ordinal_text + "\"");
    }
    plan.faults.push_back(std::move(fault));
  }
  return plan;
}

std::string FormatFaultPlan(const FaultPlan& plan) {
  std::string out;
  for (const FaultSpec& fault : plan.faults) {
    if (!out.empty()) out += ",";
    out += fault.op + ":";
    const char* name =
        fault.short_write ? "SHORT" : ErrnoToName(fault.error_number);
    out += name != nullptr ? name : "EIO";
    out += "@" + std::to_string(fault.first_call);
    if (fault.count != 1) out += "x" + std::to_string(fault.count);
  }
  return out;
}

void InstallFaultPlan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_counters.clear();
  const bool active = !plan.empty();
  g_plan = std::move(plan);
  g_active.store(active, std::memory_order_release);
}

void ClearFaultPlan() { InstallFaultPlan(FaultPlan()); }

bool FaultPlanActive() { return g_active.load(std::memory_order_acquire); }

Status InstallFaultPlanFromEnv() {
  const char* env = std::getenv("AUTOCTS_FAULTS");
  if (env == nullptr || *env == '\0') return Status::Ok();
  StatusOr<FaultPlan> plan = ParseFaultPlan(env);
  if (!plan.ok()) {
    return Status::InvalidArgument("AUTOCTS_FAULTS: " +
                                   plan.status().message());
  }
  AUTOCTS_LOG(WARNING) << "fault injection enabled from AUTOCTS_FAULTS: "
                       << FormatFaultPlan(plan.value());
  InstallFaultPlan(std::move(plan).value());
  return Status::Ok();
}

std::optional<InjectedFault> Consume(const char* op) {
  if (!g_active.load(std::memory_order_acquire)) return std::nullopt;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_plan.empty()) return std::nullopt;
  const int64_t call = ++g_counters[op];
  for (const FaultSpec& fault : g_plan.faults) {
    if (fault.op != op) continue;
    if (call >= fault.first_call && call < fault.first_call + fault.count) {
      g_injected.fetch_add(1, std::memory_order_relaxed);
      InjectedFault injected;
      injected.error_number = fault.error_number;
      injected.short_write = fault.short_write;
      return injected;
    }
  }
  return std::nullopt;
}

ScopedFaultPlan::ScopedFaultPlan(FaultPlan plan) {
  InstallFaultPlan(std::move(plan));
}

ScopedFaultPlan::ScopedFaultPlan(const std::string& spec) {
  StatusOr<FaultPlan> plan = ParseFaultPlan(spec);
  AUTOCTS_CHECK(plan.ok()) << plan.status().ToString();
  InstallFaultPlan(std::move(plan).value());
}

ScopedFaultPlan::~ScopedFaultPlan() { ClearFaultPlan(); }

IoStats GetIoStats() {
  IoStats stats;
  stats.injected_faults = g_injected.load(std::memory_order_relaxed);
  stats.retries = g_retries.load(std::memory_order_relaxed);
  stats.failures = g_failures.load(std::memory_order_relaxed);
  return stats;
}

void ResetIoStats() {
  g_injected.store(0, std::memory_order_relaxed);
  g_retries.store(0, std::memory_order_relaxed);
  g_failures.store(0, std::memory_order_relaxed);
}

double BackoffSeconds(int64_t attempt) {
  if (attempt <= 1) return 0.0;
  double backoff = kInitialBackoffSeconds;
  for (int64_t k = 2; k < attempt; ++k) backoff *= kBackoffMultiplier;
  return backoff > kMaxBackoffSeconds ? kMaxBackoffSeconds : backoff;
}

void SleepForBackoff(double seconds) {
  if (seconds <= 0.0) return;
  if (FakeClock::Installed()) {
    FakeClock::Advance(static_cast<int64_t>(seconds * 1e9));
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

bool IsRetryableIoError(const Status& status) {
  if (status.ok()) return false;
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kUnavailable;
}

RetryOutcome RetryCall(const RetryPolicy& policy, const std::string& what,
                       const std::function<Status()>& fn) {
  const int64_t max_attempts = std::max<int64_t>(1, policy.max_attempts);
  RetryOutcome outcome;
  for (int64_t attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    outcome.status = fn();
    if (outcome.status.ok() || !IsRetryableIoError(outcome.status)) {
      return outcome;
    }
    if (attempt >= max_attempts) {
      g_failures.fetch_add(1, std::memory_order_relaxed);
      return outcome;
    }
    const double backoff = BackoffSeconds(attempt + 1);
    g_retries.fetch_add(1, std::memory_order_relaxed);
    AUTOCTS_LOG(WARNING) << what << " failed (attempt " << attempt << "/"
                         << max_attempts << "): "
                         << outcome.status.ToString() << "; retrying in "
                         << backoff << "s";
    SleepForBackoff(backoff);
  }
}

}  // namespace autocts::fault
