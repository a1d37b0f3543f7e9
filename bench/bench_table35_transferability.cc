// Reproduces Table 35: transferability. The architecture searched on
// PEMS03-like data is re-trained on METR-LA-like and PEMS-BAY-like data and
// compared against architectures searched natively on those datasets.
//
// Expected shape: the transferred model is competitive — close to (but not
// better than) the natively searched model on each target dataset.
#include "bench_common.h"
#include "common/stopwatch.h"

namespace autocts {
namespace {

void Run() {
  bench::PrintTitle("Table 35: transferability of searched architectures");

  // Search once on PEMS03-like data.
  const bench::DatasetPreset source = bench::MakePreset("pems03");
  const models::PreparedData source_prepared = bench::Prepare(source);
  const core::SearchResult transferred =
      core::JointSearcher(bench::DefaultSearchOptions())
          .Search(source_prepared);
  std::printf("architecture searched on %s:\n%s\n", source.label.c_str(),
              transferred.genotype.ToPrettyString().c_str());

  for (const char* key : {"metr-la", "pems-bay"}) {
    const bench::DatasetPreset preset = bench::MakePreset(key);
    const models::PreparedData prepared = bench::Prepare(preset);
    bench::PrintTitle("target dataset: " + preset.label);
    bench::PrintMultiStepHeader(preset);

    // Transferred: PEMS03-searched genotype retrained on the target.
    const models::EvalResult transferred_eval = core::EvaluateGenotype(
        transferred.genotype, prepared, 16, bench::EvalTrainConfig());
    bench::PrintMultiStepRow("Transferred", transferred_eval, preset);

    // Native: searched directly on the target.
    const bench::AutoCtsRun native = bench::RunAutoCts(
        prepared, bench::DefaultSearchOptions(), bench::EvalTrainConfig());
    bench::PrintMultiStepRow("AutoCTS", native.eval, preset);
  }
  std::printf(
      "\nPaper's findings to compare: the transferred model is competitive "
      "on both\ntargets but the natively searched model is at least as "
      "good.\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Stopwatch timer;
  autocts::Run();
  std::printf("[bench_table35 done in %.1fs]\n", timer.Seconds());
  return 0;
}
