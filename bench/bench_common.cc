#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace autocts::bench {
namespace {

int64_t Scale(int64_t value) { return Quick() ? value / 4 : value; }

DatasetPreset TrafficSpeedPreset(const std::string& key,
                                 const std::string& label, int64_t nodes,
                                 int64_t steps, uint64_t seed) {
  DatasetPreset preset;
  preset.key = key;
  preset.label = label;
  data::TrafficSpeedConfig config;
  config.name = label;
  config.num_nodes = nodes;
  config.num_steps = Scale(steps);
  config.seed = seed;
  preset.dataset = data::GenerateTrafficSpeed(config);
  preset.window.input_length = 12;
  preset.window.output_length = 12;
  preset.train_fraction = 0.7;  // The 7:1:2 split of Table 4.
  preset.validation_fraction = 0.1;
  preset.report_horizons = {2, 5, 11};  // 15 / 30 / 60 minutes.
  return preset;
}

DatasetPreset TrafficFlowPreset(const std::string& key,
                                const std::string& label, int64_t nodes,
                                int64_t steps, uint64_t seed) {
  DatasetPreset preset;
  preset.key = key;
  preset.label = label;
  data::TrafficFlowConfig config;
  config.name = label;
  config.num_nodes = nodes;
  config.num_steps = Scale(steps);
  config.seed = seed;
  preset.dataset = data::GenerateTrafficFlow(config);
  preset.window.input_length = 12;
  preset.window.output_length = 12;
  preset.train_fraction = 0.6;  // The 6:2:2 split of Table 4.
  preset.validation_fraction = 0.2;
  return preset;  // Average over all 12 horizons, PEMS style.
}

}  // namespace

bool Quick() {
  const char* env = std::getenv("AUTOCTS_QUICK");
  return env != nullptr && env[0] == '1';
}

bool Extended() {
  const char* env = std::getenv("AUTOCTS_EXTENDED");
  return env != nullptr && env[0] == '1';
}

DatasetPreset MakePreset(const std::string& key) {
  // Node counts / lengths keep the paper's relative ordering (PEMS07
  // largest graph, PEMS08/04 smallest; single-step sets have the longest
  // input windows, which is what makes their search the costliest in
  // Table 7).
  if (key == "metr-la") {
    return TrafficSpeedPreset(key, "METR-LA (synthetic)", 12, 1440, 101);
  }
  if (key == "pems-bay") {
    return TrafficSpeedPreset(key, "PEMS-BAY (synthetic)", 14, 1728, 102);
  }
  if (key == "pems03") {
    return TrafficFlowPreset(key, "PEMS03 (synthetic)", 14, 1440, 103);
  }
  if (key == "pems04") {
    return TrafficFlowPreset(key, "PEMS04 (synthetic)", 12, 1152, 104);
  }
  if (key == "pems07") {
    return TrafficFlowPreset(key, "PEMS07 (synthetic)", 20, 1440, 105);
  }
  if (key == "pems08") {
    return TrafficFlowPreset(key, "PEMS08 (synthetic)", 10, 1152, 106);
  }
  if (key == "solar") {
    DatasetPreset preset;
    preset.key = key;
    preset.label = "Solar-Energy (synthetic)";
    data::SolarConfig config;
    config.name = preset.label;
    config.num_nodes = 12;
    config.num_steps = Scale(2160);
    config.seed = 107;
    preset.dataset = data::GenerateSolar(config);
    preset.window.input_length = 36;  // Scaled analogue of 168.
    preset.window.output_length = 1;
    preset.window.horizon = 3;
    return preset;
  }
  if (key == "electricity") {
    DatasetPreset preset;
    preset.key = key;
    preset.label = "Electricity (synthetic)";
    data::ElectricityConfig config;
    config.name = preset.label;
    config.num_nodes = 12;
    config.num_steps = Scale(2016);
    config.seed = 108;
    preset.dataset = data::GenerateElectricity(config);
    preset.window.input_length = 36;
    preset.window.output_length = 1;
    preset.window.horizon = 3;
    return preset;
  }
  AUTOCTS_CHECK(false) << "unknown preset: " << key;
  return {};
}

std::vector<std::string> MultiStepPresetKeys() {
  return {"metr-la", "pems-bay", "pems03", "pems04", "pems07", "pems08"};
}

models::PreparedData Prepare(const DatasetPreset& preset) {
  return models::PrepareData(preset.dataset, preset.window,
                             preset.train_fraction,
                             preset.validation_fraction);
}

models::TrainConfig BaselineTrainConfig() {
  models::TrainConfig config;
  config.epochs = Quick() ? 1 : 3;
  config.batch_size = 32;
  config.max_batches_per_epoch = Quick() ? 3 : 10;
  config.seed = 7;
  return config;
}

models::TrainConfig EvalTrainConfig() {
  models::TrainConfig config = BaselineTrainConfig();
  config.epochs = Quick() ? 1 : 4;
  return config;
}

core::SearchOptions DefaultSearchOptions() {
  core::SearchOptions options;
  options.supernet.hidden_dim = 16;
  options.supernet.micro_nodes = 5;   // Default M (Section 4.1.4).
  options.supernet.macro_blocks = 4;  // Default B.
  options.epochs = Quick() ? 1 : 2;
  options.batch_size = 32;
  options.max_batches_per_epoch = Quick() ? 2 : 5;
  options.seed = 3;
  return options;
}

models::EvalResult RunBaseline(const std::string& name,
                               const models::PreparedData& prepared,
                               const models::TrainConfig& config) {
  models::ForecastingModelPtr model = models::CreateBaseline(
      name, models::MakeModelContext(prepared, /*hidden_dim=*/16,
                                     /*seed=*/1234));
  return models::TrainAndEvaluate(model.get(), prepared, config);
}

AutoCtsRun RunAutoCts(const models::PreparedData& prepared,
                      const core::SearchOptions& options,
                      const models::TrainConfig& eval_config) {
  AutoCtsRun run;
  run.search = core::JointSearcher(options).Search(prepared);
  run.eval = core::EvaluateGenotype(run.search.genotype, prepared,
                                    options.supernet.hidden_dim, eval_config);
  return run;
}

double PairedOverheadPercent(int pairs, const std::string& baseline,
                             const std::function<double()>& run_baseline,
                             const std::function<double()>& run_variant) {
  std::vector<double> ratios;
  std::vector<double> baseline_seconds;
  for (int i = 0; i < pairs; ++i) {
    double base = 0.0;
    double variant = 0.0;
    if (i % 2 == 0) {
      base = run_baseline();
      variant = run_variant();
    } else {
      variant = run_variant();
      base = run_baseline();
    }
    ratios.push_back(variant / base);
    baseline_seconds.push_back(base);
  }
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2.0;
  };
  const double overhead = (median(ratios) - 1.0) * 100.0;
  std::printf("%-21s %8.3f s (median over %d pairs)\n",
              (baseline + " run").c_str(), median(baseline_seconds), pairs);
  std::printf("per-pair overhead     %+8.2f %% .. %+.2f %%\n",
              (*std::min_element(ratios.begin(), ratios.end()) - 1.0) * 100.0,
              (*std::max_element(ratios.begin(), ratios.end()) - 1.0) * 100.0);
  std::printf("overhead (median)     %+8.2f %%   (budget: < 5%%)\n", overhead);
  return overhead;
}

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

std::string Cell(const std::string& text, int width) {
  std::string out = text;
  if (static_cast<int>(out.size()) < width) {
    out.append(width - out.size(), ' ');
  }
  return out;
}

std::string Num(double value, int precision, int width) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return Cell(buffer, width);
}

std::string Pct(double fraction, int precision, int width) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", precision,
                fraction * 100.0);
  return Cell(buffer, width);
}

void PrintMultiStepHeader(const DatasetPreset& preset) {
  std::printf("%s", Cell("model", 16).c_str());
  if (preset.report_horizons.empty()) {
    std::printf("%s%s%s", Cell("MAE").c_str(), Cell("RMSE").c_str(),
                Cell("MAPE").c_str());
  } else {
    for (int64_t h : preset.report_horizons) {
      const std::string tag = std::to_string((h + 1) * 5) + "min";
      std::printf("%s%s%s", Cell("MAE@" + tag).c_str(),
                  Cell("RMSE@" + tag).c_str(), Cell("MAPE@" + tag).c_str());
    }
  }
  std::printf("\n");
  PrintRule();
}

void PrintMultiStepRow(const std::string& model,
                       const models::EvalResult& result,
                       const DatasetPreset& preset) {
  std::printf("%s", Cell(model, 16).c_str());
  if (preset.report_horizons.empty()) {
    std::printf("%s%s%s", Num(result.average.mae).c_str(),
                Num(result.average.rmse).c_str(),
                Pct(result.average.mape).c_str());
  } else {
    for (int64_t h : preset.report_horizons) {
      const metrics::PointMetrics& m = result.per_horizon.at(h);
      std::printf("%s%s%s", Num(m.mae).c_str(), Num(m.rmse).c_str(),
                  Pct(m.mape).c_str());
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace autocts::bench
