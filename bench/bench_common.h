// Shared experiment harness for the table/figure reproduction benches.
//
// Provides: synthetic dataset presets mirroring Table 4 of the paper
// (scaled to one CPU core; see DESIGN.md), canonical train/search configs,
// and table-formatting helpers so every bench prints paper-shaped rows.
//
// Env vars:
//   AUTOCTS_QUICK=1   roughly quarter-scale runs (CI smoke).
#ifndef AUTOCTS_BENCH_BENCH_COMMON_H_
#define AUTOCTS_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/model_zoo.h"
#include "models/trainer.h"

namespace autocts::bench {

// One benchmark dataset: generated values + windowing + split + which
// horizons the paper reports for it.
struct DatasetPreset {
  std::string key;    // "metr-la", "pems03", "solar", ...
  std::string label;  // "METR-LA (synthetic)"
  data::CtsDataset dataset;
  data::WindowSpec window;
  double train_fraction = 0.6;
  double validation_fraction = 0.2;
  // 0-based horizon indices reported separately (15/30/60 min); empty means
  // the 12-step average is reported (PEMS style).
  std::vector<int64_t> report_horizons;
};

// True when AUTOCTS_QUICK=1 (quarter-scale smoke runs).
bool Quick();

// True when AUTOCTS_EXTENDED=1: benches add their secondary datasets
// (the paper runs each study on all eight datasets; the default sweep
// covers one representative per table group to bound runtime).
bool Extended();

// Builds one of the eight Table 4 presets by key: "metr-la", "pems-bay",
// "pems03", "pems04", "pems07", "pems08", "solar", "electricity".
DatasetPreset MakePreset(const std::string& key);

// The six multi-step keys in Table 5/6 order.
std::vector<std::string> MultiStepPresetKeys();

// PrepareData for a preset.
models::PreparedData Prepare(const DatasetPreset& preset);

// Canonical configs (already scaled for the bench budget).
models::TrainConfig BaselineTrainConfig();
models::TrainConfig EvalTrainConfig();
core::SearchOptions DefaultSearchOptions();

// Builds and trains a named baseline; returns the eval report.
models::EvalResult RunBaseline(const std::string& name,
                               const models::PreparedData& prepared,
                               const models::TrainConfig& config);

// Full AutoCTS pipeline: joint search (Algorithm 1) + retrain-from-scratch
// evaluation (Section 3.4).
struct AutoCtsRun {
  core::SearchResult search;
  models::EvalResult eval;
};
AutoCtsRun RunAutoCts(const models::PreparedData& prepared,
                      const core::SearchOptions& options,
                      const models::TrainConfig& eval_config);

// ----- Wall-clock overhead gate ----------------------------------------------

// The overhead gate of the wall-clock smokes: `pairs` interleaved pairs of
// runs of a baseline and a variant, each callable running once and
// returning its seconds. The two runs of a pair see the same host state and
// the side that runs first alternates, so drift and warm-up cancel within
// a pair; the median of the per-pair ratios (variant / baseline) ignores
// the pairs a host hiccup lands in, the first pair's cold start included.
// Single runs vary by up to +-40% on a shared host. Prints the baseline's
// median time, the per-pair range and the median, labelled `baseline`,
// and returns the median overhead in percent.
double PairedOverheadPercent(int pairs, const std::string& baseline,
                             const std::function<double()>& run_baseline,
                             const std::function<double()>& run_variant);

// ----- Table formatting ----------------------------------------------------

void PrintTitle(const std::string& title);
void PrintRule();
// Fixed-width cell helpers.
std::string Cell(const std::string& text, int width = 12);
std::string Num(double value, int precision = 2, int width = 12);
std::string Pct(double fraction, int precision = 2, int width = 12);

// Prints "model | MAE RMSE MAPE" triplets at the preset's report horizons
// (or the all-horizon average when none are set).
void PrintMultiStepHeader(const DatasetPreset& preset);
void PrintMultiStepRow(const std::string& model,
                       const models::EvalResult& result,
                       const DatasetPreset& preset);

}  // namespace autocts::bench

#endif  // AUTOCTS_BENCH_BENCH_COMMON_H_
