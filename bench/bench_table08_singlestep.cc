// Reproduces Table 8: single-step forecasting accuracy (RRSE / CORR) on
// Solar-Energy and Electricity at horizons 3 and 24, for LSTNet, TPA-LSTM,
// MTGNN, and AutoCTS.
//
// Expected shape: the spatial models (MTGNN, AutoCTS) beat the univariate
// ones (LSTNet, TPA-LSTM); AutoCTS edges out or ties MTGNN (the paper notes
// the single-step margin is small).
#include "bench_common.h"
#include "common/stopwatch.h"

namespace autocts {
namespace {

struct Row {
  std::string model;
  double rrse_h3 = 0.0;
  double corr_h3 = 0.0;
  double rrse_h24 = 0.0;
  double corr_h24 = 0.0;
};

void Run() {
  for (const char* key : {"solar", "electricity"}) {
    bench::PrintTitle("Table 8 column group: " +
                      bench::MakePreset(key).label);
    std::printf("%s%s%s%s%s\n", bench::Cell("model", 14).c_str(),
                bench::Cell("RRSE@3").c_str(), bench::Cell("CORR@3").c_str(),
                bench::Cell("RRSE@24").c_str(),
                bench::Cell("CORR@24").c_str());
    bench::PrintRule();

    std::vector<Row> rows;
    for (const std::string& model : models::SingleStepBaselineNames()) {
      rows.push_back({model});
    }
    rows.push_back({"AutoCTS"});

    for (const int64_t horizon : {int64_t{3}, int64_t{24}}) {
      bench::DatasetPreset preset = bench::MakePreset(key);
      preset.window.horizon = horizon;
      const models::PreparedData prepared = bench::Prepare(preset);
      for (Row& row : rows) {
        models::EvalResult result;
        if (row.model == "AutoCTS") {
          const bench::AutoCtsRun run =
              bench::RunAutoCts(prepared, bench::DefaultSearchOptions(),
                                bench::EvalTrainConfig());
          result = run.eval;
        } else {
          result = bench::RunBaseline(row.model, prepared,
                                      bench::BaselineTrainConfig());
        }
        if (horizon == 3) {
          row.rrse_h3 = result.rrse;
          row.corr_h3 = result.corr;
        } else {
          row.rrse_h24 = result.rrse;
          row.corr_h24 = result.corr;
        }
      }
    }
    for (const Row& row : rows) {
      std::printf("%s%s%s%s%s\n", bench::Cell(row.model, 14).c_str(),
                  bench::Num(row.rrse_h3, 4).c_str(),
                  bench::Num(row.corr_h3, 4).c_str(),
                  bench::Num(row.rrse_h24, 4).c_str(),
                  bench::Num(row.corr_h24, 4).c_str());
    }
  }
  std::printf(
      "\nPaper's findings to compare: MTGNN and AutoCTS (which model "
      "inter-series\ncorrelations) beat LSTNet/TPA-LSTM; horizon 24 is "
      "harder than horizon 3\n(higher RRSE, lower CORR).\n");
}

}  // namespace
}  // namespace autocts

int main() {
  autocts::Stopwatch timer;
  autocts::Run();
  std::printf("[bench_table08 done in %.1fs]\n", timer.Seconds());
  return 0;
}
