// Measures the cost of the I/O resilience layer on its no-fault hot path.
//
// Three claims from DESIGN.md are checked here:
//   1. Seam cost: with no fault plan installed, fault::Consume() is one
//      relaxed atomic load — under 50 ns/call averaged over a tight loop
//      (the real budget is ~1 ns; 50 leaves room for a loaded CI box).
//   2. Wrapper cost: a checkpointed search run with the default RetryPolicy
//      wired in (the shipped configuration) costs < 5% wall time over the
//      same run with a bare single-attempt policy, measured as the median
//      of per-pair time ratios over interleaved pairs of runs. Both
//      configurations write the same checkpoints, so the comparison
//      isolates the RetryCall bookkeeping.
//   3. Transparency: both runs produce bit-identical genotypes and
//      validation losses.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/trainer.h"

namespace autocts {
namespace {

struct TimedRun {
  double seconds = 0.0;
  std::string genotype;
  double validation_loss = 0.0;
};

TimedRun RunOnce(core::SearchOptions options,
                 const models::PreparedData& prepared,
                 const std::string& checkpoint_path, bool with_retries) {
  options.checkpoint_path = checkpoint_path;
  options.checkpoint_every_n_batches = 1;  // maximize write traffic
  if (!with_retries) {
    options.io_retry.max_attempts = 1;  // RetryCall degenerates to one call
  }
  Stopwatch timer;
  const core::SearchResult result =
      core::JointSearcher(options).Search(prepared);
  TimedRun run;
  run.seconds = timer.Seconds();
  run.genotype = result.genotype.ToText();
  run.validation_loss = result.final_validation_loss;
  std::remove(checkpoint_path.c_str());
  std::remove((checkpoint_path + ".prev").c_str());
  return run;
}

void Run() {
  bench::PrintTitle("I/O resilience overhead on the no-fault path");

  // ---- 1. The injection seam itself. ----
  fault::ClearFaultPlan();
  constexpr int64_t kSeamCalls = 10'000'000;
  Stopwatch seam_timer;
  int64_t fired = 0;
  for (int64_t i = 0; i < kSeamCalls; ++i) {
    if (fault::Consume("write")) ++fired;
  }
  const double seam_ns = seam_timer.Seconds() * 1e9 / kSeamCalls;
  std::printf("fault seam (no plan)  %8.2f ns/call over %lld calls "
              "(budget: < 50 ns)\n",
              seam_ns, static_cast<long long>(kSeamCalls));
  AUTOCTS_CHECK_EQ(fired, 0);

  // ---- 2 + 3. Retry wrapper on a checkpoint-heavy search. ----
  data::TrafficSpeedConfig data_config;
  data_config.num_nodes = 4;
  data_config.num_steps = bench::Quick() ? 300 : 600;
  data_config.seed = 31;
  data::WindowSpec window;
  window.input_length = 6;
  window.output_length = 3;
  const models::PreparedData prepared = models::PrepareData(
      data::GenerateTrafficSpeed(data_config), window, 0.7, 0.1);

  core::SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.supernet.partial_denominator = 4;
  options.epochs = 2;
  options.batch_size = 8;
  options.max_batches_per_epoch = bench::Quick() ? 4 : 16;

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string checkpoint_path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/bench_fault_overhead.ckpt";

  // One tensor thread: the wrapper's cost does not depend on kernel
  // parallelism, and a run that needs one vCPU is shorter and less exposed
  // to other load on the host.
  SetNumThreads(1);
  TimedRun bare;
  TimedRun wrapped;
  const double overhead = bench::PairedOverheadPercent(
      /*pairs=*/17, "bare policy",
      [&] {
        bare = RunOnce(options, prepared, checkpoint_path, false);
        return bare.seconds;
      },
      [&] {
        wrapped = RunOnce(options, prepared, checkpoint_path, true);
        return wrapped.seconds;
      });

  AUTOCTS_CHECK(bare.genotype == wrapped.genotype)
      << "retry wiring changed the derived genotype";
  AUTOCTS_CHECK(bare.validation_loss == wrapped.validation_loss)
      << "retry wiring changed the validation loss";

  // Hard gates at 2x the budgets, like bench_trace_overhead: tight enough
  // to catch a real regression (an accidental sleep, a lock on the hot
  // path), loose enough to survive a noisy smoke-test box.
  AUTOCTS_CHECK(seam_ns < 50.0)
      << "fault seam costs " << seam_ns << " ns/call";
  if (overhead > 10.0) {
    std::printf("\nFAIL: retry-wrapper overhead %.2f%% exceeds 2x the 5%% "
                "budget\n",
                overhead);
    std::exit(1);
  }
  std::printf("ok: no-fault path overhead within budget, results "
              "bit-identical\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Run();
  return 0;
}
