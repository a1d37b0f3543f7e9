// Reproduces Table 7: search time and memory per dataset.
//
// The paper reports 12-163 GPU hours and up to ~36 GB; here the absolute
// unit is CPU seconds / MB, but the *ordering* should match: cost grows
// with the number of nodes, the number of timestamps, and the input window
// length, making the single-step datasets (168-step windows in the paper,
// 36 here) the most expensive and the smallest PEMS sets the cheapest.
//
// Memory is measured, not estimated: the tensor pool's high-water mark of
// live tensor bytes (common/buffer_pool.h) over each search, which
// includes the prepared dataset the search reads.
#include "bench_common.h"
#include "common/buffer_pool.h"
#include "common/stopwatch.h"

namespace autocts {
namespace {

void Run() {
  bench::PrintTitle("Table 7: search time and measured tensor memory");
  std::printf("%s%s%s%s%s\n", bench::Cell("dataset", 26).c_str(),
              bench::Cell("nodes", 8).c_str(),
              bench::Cell("windows", 10).c_str(),
              bench::Cell("search (s)", 12).c_str(),
              bench::Cell("tensor peak (MB)", 18).c_str());
  bench::PrintRule();
  std::vector<std::string> keys = bench::MultiStepPresetKeys();
  keys.push_back("solar");
  keys.push_back("electricity");
  for (const std::string& key : keys) {
    const bench::DatasetPreset preset = bench::MakePreset(key);
    const models::PreparedData prepared = bench::Prepare(preset);
    core::SearchOptions options = bench::DefaultSearchOptions();
    // Fixed step count across datasets so the measured time reflects the
    // per-step cost (graph size, window length), as in the paper.
    options.epochs = 1;
    options.max_batches_per_epoch = bench::Quick() ? 2 : 4;
    BufferPool::Global().ResetPeak();
    const core::SearchResult result =
        core::JointSearcher(options).Search(prepared);
    const double peak_mb =
        static_cast<double>(BufferPool::Global().Stats().peak_live_bytes) /
        (1024.0 * 1024.0);
    std::printf("%s%s%s%s%s\n", bench::Cell(preset.label, 26).c_str(),
                bench::Cell(std::to_string(prepared.num_nodes), 8).c_str(),
                bench::Cell(std::to_string(prepared.train().NumSamples()), 10)
                    .c_str(),
                bench::Num(result.search_seconds, 1, 12).c_str(),
                bench::Num(peak_mb, 1, 18).c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nPaper's findings to compare: the single-step datasets "
      "(Solar-Energy,\nElectricity; long input windows) cost the most; the "
      "small PEMS04/08 the\nleast; larger graphs (PEMS07) cost more than "
      "smaller ones.\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Stopwatch timer;
  autocts::Run();
  std::printf("[bench_table07 done in %.1fs]\n", timer.Seconds());
  return 0;
}
