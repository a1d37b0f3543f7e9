// perfbench: the repository benchmark program, run by perfbench/run.py.
//
//   perfbench --workload search_eval|serve_tcp --seed N
//             --seconds S --trace 0|1
//             [--candidates perfbench/candidates.txt] [--work-dir DIR]
//
// Runs one pass of the workload, with the tracer on for --trace 1, prints
// the run configuration and every metric the pass measured, and as the
// last line one JSON record (report.h). run.py picks the metrics
// BENCHMARK.json declares and attaches their units. Exits 0 when every
// output check passed, 1 when one failed, 2 on bad arguments and 3 when the
// thread layout does not fit in nproc.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace autocts::perfbench {

int64_t Layout::ThreadBudget() const {
  return clients +
         std::max<int64_t>({server_workers, eval_workers, 1}) *
             tensor_threads;
}

Layout LayoutFor(const std::string& workload) {
  Layout layout;
  if (workload == "search_eval") {
    layout.eval_workers = 2;
  } else if (workload == "serve_tcp") {
    layout.server_workers = 2;
    layout.clients = 2;
  }
  return layout;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string candidates = "perfbench/candidates.txt";
  std::string work_dir = ".bench_build/perfbench/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) return false;
  for (const auto& [key, value] : flags) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "candidates") {
      args->candidates = value;
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (args->workload == "search_eval" || args->workload == "serve_tcp") &&
         args->seconds > 0.0 && args->trace >= 0;
}

int64_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload search_eval|serve_tcp "
                 "--seed N --seconds S --trace 0|1 "
                 "[--candidates FILE] [--work-dir DIR]\n");
    return 2;
  }
  const Layout layout = LayoutFor(args.workload);
  const int64_t nproc = Nproc();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("layout: nproc=%lld tensor_threads=%lld server_workers=%lld "
              "eval_workers=%lld clients=%lld thread_budget=%lld\n",
              static_cast<long long>(nproc),
              static_cast<long long>(layout.tensor_threads),
              static_cast<long long>(layout.server_workers),
              static_cast<long long>(layout.eval_workers),
              static_cast<long long>(layout.clients),
              static_cast<long long>(layout.ThreadBudget()));
  if (layout.ThreadBudget() > nproc) {
    std::fprintf(stderr,
                 "perfbench: the %s layout needs %lld threads but nproc is "
                 "%lld; refusing to measure the scheduler\n",
                 args.workload.c_str(),
                 static_cast<long long>(layout.ThreadBudget()),
                 static_cast<long long>(nproc));
    return 3;
  }
  std::fflush(stdout);

  RunConfig config;
  config.workload = args.workload;
  config.layout = layout;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.candidates_path = args.candidates;
  config.work_dir = args.work_dir;
  const bool traced = args.trace == 1;
  Measurement m = config.workload == "search_eval"
                      ? RunSearchEval(config, traced)
                      : RunServeTcp(config, traced);

  Result result;
  result.attempted = std::max<int64_t>(m.attempted, 1);
  result.failed = m.failed;
  result.correct = m.failed == 0;
  result.metrics = std::move(m.metrics);
  for (const auto& [name, value] : result.metrics) {
    std::printf("  %-34s %16.6f\n", name.c_str(), value);
  }
  for (const std::string& error : m.errors) {
    std::printf("FAIL: %s\n", error.c_str());
  }
  const Status valid = ValidateResult(result);
  if (!valid.ok()) {
    std::fprintf(stderr, "perfbench: invalid result: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", ResultToJson(result).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace autocts::perfbench

int main(int argc, char** argv) {
  return autocts::perfbench::Main(argc, argv);
}
