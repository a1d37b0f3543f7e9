// Reproduces the ablation studies of Tables 9-16 on two representative
// datasets (METR-LA-like for Table 9, PEMS08-like for Table 14; the paper
// runs all eight, with the same qualitative outcome on each).
//
// Variants (Section 4.2.3):
//   AutoCTS                 full system
//   w/o design principles   all 12 Table-1 operators in the micro space
//   w/o temperature         tau fixed at 1 (no annealing)
//   w/o macro search        single searched block, stacked homogeneously
//   macro only              topology search over 4 human-designed blocks
//                           (core::MacroOnlyOptions)
//
// Expected shape: the full system is the most accurate; "w/o design
// principles" costs several times more search time at no accuracy gain;
// "macro only" searches fastest but is the least accurate.
#include "bench_common.h"

#include "common/stopwatch.h"

namespace autocts {
namespace {

void PrintRow(const std::string& label, const models::EvalResult& eval,
              double search_seconds) {
  std::printf("%s%s%s%s%s\n", bench::Cell(label, 24).c_str(),
              bench::Num(eval.average.mae).c_str(),
              bench::Num(eval.average.rmse).c_str(),
              bench::Pct(eval.average.mape).c_str(),
              bench::Num(search_seconds, 1).c_str());
  std::fflush(stdout);
}

void RunDataset(const std::string& key, const std::string& table_tag) {
  const bench::DatasetPreset preset = bench::MakePreset(key);
  const models::PreparedData prepared = bench::Prepare(preset);
  bench::PrintTitle(table_tag + ": ablations on " + preset.label);
  std::printf("%s%s%s%s%s\n", bench::Cell("variant", 24).c_str(),
              bench::Cell("MAE").c_str(), bench::Cell("RMSE").c_str(),
              bench::Cell("MAPE").c_str(),
              bench::Cell("search (s)").c_str());
  bench::PrintRule();

  // Full AutoCTS.
  {
    const bench::AutoCtsRun run = bench::RunAutoCts(
        prepared, bench::DefaultSearchOptions(), bench::EvalTrainConfig());
    PrintRow("AutoCTS", run.eval, run.search.search_seconds);
  }
  // w/o design principles: all Table-1 operators.
  {
    core::SearchOptions options = bench::DefaultSearchOptions();
    options.supernet.op_set = core::FullOperatorSet();
    const bench::AutoCtsRun run =
        bench::RunAutoCts(prepared, options, bench::EvalTrainConfig());
    PrintRow("w/o design principles", run.eval, run.search.search_seconds);
  }
  // w/o temperature.
  {
    core::SearchOptions options = bench::DefaultSearchOptions();
    options.use_temperature = false;
    const bench::AutoCtsRun run =
        bench::RunAutoCts(prepared, options, bench::EvalTrainConfig());
    PrintRow("w/o temperature", run.eval, run.search.search_seconds);
  }
  // w/o macro search.
  {
    core::SearchOptions options = bench::DefaultSearchOptions();
    options.use_macro = false;
    const bench::AutoCtsRun run =
        bench::RunAutoCts(prepared, options, bench::EvalTrainConfig());
    PrintRow("w/o macro search", run.eval, run.search.search_seconds);
  }
  // macro only.
  {
    const bench::AutoCtsRun run = bench::RunAutoCts(
        prepared, core::MacroOnlyOptions(bench::DefaultSearchOptions()),
        bench::EvalTrainConfig());
    PrintRow("macro only", run.eval, run.search.search_seconds);
  }
}

void Run() {
  RunDataset("metr-la", "Table 9");
  if (bench::Extended()) RunDataset("pems08", "Table 14");
  std::printf(
      "\nPaper's findings to compare: full AutoCTS most accurate; the "
      "12-operator\nspace costs ~4-5x more search time without gains; macro "
      "only is cheapest\nbut least accurate; temperature and macro search "
      "each contribute.\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Stopwatch timer;
  autocts::Run();
  std::printf("[bench_table09_16 done in %.1fs]\n", timer.Seconds());
  return 0;
}
