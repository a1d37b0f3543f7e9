// Reproduces Tables 27-34: training time (s/epoch), inference time
// (ms/window), and parameter counts for every model, on a multi-step
// traffic dataset (Tables 27-32 style) and a single-step dataset
// (Tables 33-34 style).
//
// Expected shape: DCRNN trains/infers slowest (sequential seq2seq decoder);
// the convolutional models (Graph WaveNet, MTGNN, STGCN) are fast; AutoCTS
// sits in between (attention operators are costlier than convolutions);
// parameter counts are broadly comparable across models.
#include "bench_common.h"
#include "common/stopwatch.h"

namespace autocts {
namespace {

void PrintRow(const std::string& model, const models::EvalResult& result) {
  std::printf("%s%s%s%s\n", bench::Cell(model, 16).c_str(),
              bench::Num(result.train_seconds_per_epoch, 2).c_str(),
              bench::Num(result.inference_ms_per_window, 3).c_str(),
              bench::Cell(std::to_string(result.parameter_count)).c_str());
  std::fflush(stdout);
}

void Header() {
  std::printf("%s%s%s%s\n", bench::Cell("model", 16).c_str(),
              bench::Cell("train s/ep").c_str(),
              bench::Cell("inf ms/win").c_str(),
              bench::Cell("params").c_str());
  bench::PrintRule();
}

void Run() {
  models::TrainConfig config = bench::BaselineTrainConfig();
  config.epochs = 1;  // One timed epoch suffices for the cost columns.

  {
    const bench::DatasetPreset preset = bench::MakePreset("metr-la");
    const models::PreparedData prepared = bench::Prepare(preset);
    bench::PrintTitle("Table 27 analogue: runtime & parameters, " +
                      preset.label);
    Header();
    for (const std::string& model : models::MultiStepBaselineNames()) {
      PrintRow(model, bench::RunBaseline(model, prepared, config));
    }
    core::SearchOptions options = bench::DefaultSearchOptions();
    options.epochs = 1;
    options.max_batches_per_epoch = 2;
    const bench::AutoCtsRun run = bench::RunAutoCts(prepared, options, config);
    PrintRow("AutoCTS", run.eval);
  }

  {
    const bench::DatasetPreset preset = bench::MakePreset("solar");
    const models::PreparedData prepared = bench::Prepare(preset);
    bench::PrintTitle("Table 33 analogue: runtime & parameters, " +
                      preset.label);
    Header();
    for (const std::string& model : models::SingleStepBaselineNames()) {
      PrintRow(model, bench::RunBaseline(model, prepared, config));
    }
    core::SearchOptions options = bench::DefaultSearchOptions();
    options.epochs = 1;
    options.max_batches_per_epoch = 2;
    const bench::AutoCtsRun run = bench::RunAutoCts(prepared, options, config);
    PrintRow("AutoCTS", run.eval);
  }

  std::printf(
      "\nPaper's findings to compare: DCRNN slowest (sequential decoder); "
      "conv\nmodels fastest; AutoCTS slower to train than conv baselines "
      "(attention\noperators) yet with fast inference; parameter counts "
      "comparable.\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Stopwatch timer;
  autocts::Run();
  std::printf("[bench_table27_34 done in %.1fs]\n", timer.Seconds());
  return 0;
}
