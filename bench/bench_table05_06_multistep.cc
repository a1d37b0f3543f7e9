// Reproduces Tables 5 and 6: multi-step forecasting accuracy of AutoCTS vs
// the baselines.
//
//  - Table 5: METR-LA / PEMS-BAY style (MAE/RMSE/MAPE at 15/30/60 min).
//  - Table 6: PEMS03/04/07/08 style (12-step averages).
//
// Expected shape (not absolute numbers): AutoCTS is best or tied-best on
// every dataset; AutoSTG (restricted 2-operator micro-only NAS) sits
// between the best human baselines and AutoCTS; no single human-designed
// baseline wins everywhere. AutoSTG runs only on the two speed datasets,
// mirroring the paper (it needs side information unavailable for PEMS).
#include "bench_common.h"
#include "common/stopwatch.h"

namespace autocts {
namespace {

void Run() {
  for (const std::string& key : bench::MultiStepPresetKeys()) {
    const bench::DatasetPreset preset = bench::MakePreset(key);
    const models::PreparedData prepared = bench::Prepare(preset);
    bench::PrintTitle((preset.report_horizons.empty()
                           ? std::string("Table 6 row group: ")
                           : std::string("Table 5 row group: ")) +
                      preset.label);
    bench::PrintMultiStepHeader(preset);

    for (const std::string& model : models::MultiStepBaselineNames()) {
      const models::EvalResult result = bench::RunBaseline(
          model, prepared, bench::BaselineTrainConfig());
      bench::PrintMultiStepRow(model, result, preset);
    }

    // AutoSTG baseline: restricted operator set, micro-only (speed datasets
    // only, as in the paper).
    if (!preset.report_horizons.empty()) {
      core::SearchOptions autostg = core::AutoStgLiteOptions();
      autostg.supernet.hidden_dim = 16;
      autostg.epochs = bench::DefaultSearchOptions().epochs;
      autostg.batch_size = 32;
      autostg.max_batches_per_epoch =
          bench::DefaultSearchOptions().max_batches_per_epoch;
      const bench::AutoCtsRun run = bench::RunAutoCts(
          prepared, autostg, bench::EvalTrainConfig());
      bench::PrintMultiStepRow("AutoSTG", run.eval, preset);
    }

    // AutoCTS.
    const bench::AutoCtsRun run = bench::RunAutoCts(
        prepared, bench::DefaultSearchOptions(), bench::EvalTrainConfig());
    bench::PrintMultiStepRow("AutoCTS", run.eval, preset);
  }
  std::printf(
      "\nPaper's findings to compare: (1) AutoCTS best on every dataset;\n"
      "(2) AutoCTS > AutoSTG; (3) no human baseline dominates all "
      "datasets.\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Stopwatch timer;
  autocts::Run();
  std::printf("[bench_table05_06 done in %.1fs]\n", timer.Seconds());
  return 0;
}
