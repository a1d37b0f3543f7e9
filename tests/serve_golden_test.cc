// Golden forecast regression suite: every model-zoo baseline plus a derived
// AutoCTS architecture has a checked-in fixture under
// tests/testdata/forecast_golden_v1/ holding tiny fixed-seed trained
// weights and the exact hex-float image of the model's forward pass on a
// deterministic input. The assertions are byte-exact, so ANY numeric drift
// in the kernel/autograd/nn stack — a reordered accumulation, a changed
// default, a refactored op — fails loudly here instead of silently shifting
// every downstream result.
//
// When a change is intentional, regenerate the fixtures with
//
//   tools/regen_goldens.sh         (wraps AUTOCTS_REGEN_GOLDENS=1)
//
// and review the fixture diff alongside the code change. Regeneration
// retrains the tiny models (a few seconds) and re-verifies the freshly
// written fixtures in the same run.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/text_codec.h"
#include "core/derived_model.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/state_dict.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

#ifndef AUTOCTS_TESTDATA_DIR
#error "AUTOCTS_TESTDATA_DIR must be defined by the build"
#endif

constexpr char kFormatName[] = "autocts-forecast-golden";
constexpr int64_t kFormatVersion = 1;
constexpr int64_t kHiddenDim = 8;
constexpr uint64_t kDataSeed = 61;
constexpr uint64_t kInitSeed = 5;
constexpr uint64_t kTrainSeed = 13;
constexpr uint64_t kInputSeed = 1234;
constexpr char kDerivedName[] = "AutoCTS-derived";

bool RegenRequested() {
  const char* env = std::getenv("AUTOCTS_REGEN_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

std::string Slug(const std::string& name) {
  std::string slug;
  for (char c : name) {
    slug.push_back(std::isalnum(static_cast<unsigned char>(c))
                       ? static_cast<char>(
                             std::tolower(static_cast<unsigned char>(c)))
                       : '_');
  }
  return slug;
}

std::string FixturePath(const std::string& name) {
  return std::string(AUTOCTS_TESTDATA_DIR) + "/forecast_golden_v1/" +
         Slug(name) + ".golden";
}

// The shared deterministic setup: every fixture was generated against this
// dataset geometry, init seed, and probe input. Changing any of these
// requires a fixture regeneration.
struct GoldenContext {
  models::PreparedData data;
  models::ModelContext context;
  Tensor input;  // [1, P, N, F], normalized domain
};

const GoldenContext& Context() {
  static const GoldenContext* golden = [] {
    auto* g = new GoldenContext{fixtures::TinyPreparedData(kDataSeed), {}, {}};
    g->context.num_nodes = g->data.num_nodes;
    g->context.in_features = g->data.in_features;
    g->context.input_length = g->data.window.input_length;
    g->context.output_length = g->data.window.output_length;
    g->context.hidden_dim = kHiddenDim;
    g->context.adjacency = g->data.adjacency;
    g->context.seed = kInitSeed;
    Rng rng(kInputSeed);
    g->input = Tensor::Rand({1, g->context.input_length,
                             g->context.num_nodes, g->context.in_features},
                            &rng, -1.0, 1.0);
    return g;
  }();
  return *golden;
}

std::vector<std::string> GoldenModelNames() {
  std::vector<std::string> names = models::AllBaselineNames();
  names.push_back(kDerivedName);
  return names;
}

models::ForecastingModelPtr BuildModel(const std::string& name) {
  const GoldenContext& golden = Context();
  if (name == kDerivedName) {
    return std::make_unique<core::DerivedModel>(
        fixtures::MakeCandidateGenotype(1), golden.context);
  }
  return models::CreateBaseline(name, golden.context);
}

std::string ForecastHex(const Tensor& forecast) {
  std::string line;
  for (int64_t i = 0; i < forecast.size(); ++i) {
    if (!line.empty()) line.push_back(' ');
    line += FormatExactDouble(forecast.data()[i]);
  }
  return line;
}

std::string EncodeFixture(const std::string& name, const std::string& state,
                          const std::string& forecast_hex) {
  TextWriter writer;
  writer.Add("format", kFormatName);
  writer.AddInt("version", kFormatVersion);
  writer.Add("model", name);
  std::vector<std::string_view> lines;
  for (std::string_view rest = state; !rest.empty();) {
    lines.push_back(NextLine(&rest));
  }
  writer.AddInt("state_lines", static_cast<int64_t>(lines.size()));
  for (const std::string_view line : lines) writer.Add("state", line);
  writer.Add("forecast", forecast_hex);
  return SealText(writer.Release());
}

struct Fixture {
  std::string state;
  std::string forecast_hex;
};

StatusOr<Fixture> DecodeFixture(const std::string& text,
                                const std::string& name) {
  StatusOr<TextReader> reader =
      OpenSealedText(text, kFormatName, kFormatVersion);
  if (!reader.ok()) return reader.status();
  StatusOr<std::string_view> model = reader.value().Get("model");
  if (!model.ok() || model.value() != name) {
    return Status::InvalidArgument("fixture names a different model");
  }
  StatusOr<int64_t> state_lines = reader.value().GetInt("state_lines");
  if (!state_lines.ok()) return state_lines.status();
  const std::vector<std::string_view> lines = reader.value().GetAll("state");
  if (static_cast<int64_t>(lines.size()) != state_lines.value()) {
    return Status::InvalidArgument("state line count mismatch");
  }
  Fixture fixture;
  for (const std::string_view line : lines) {
    fixture.state += line;
    fixture.state.push_back('\n');
  }
  StatusOr<std::string_view> forecast = reader.value().Get("forecast");
  if (!forecast.ok()) return forecast.status();
  fixture.forecast_hex = forecast.value();
  return fixture;
}

// Trains the tiny model and writes its fixture. Only runs under
// AUTOCTS_REGEN_GOLDENS=1 (tools/regen_goldens.sh).
void RegenerateFixture(const std::string& name) {
  const GoldenContext& golden = Context();
  models::ForecastingModelPtr model = BuildModel(name);
  models::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.max_batches_per_epoch = 2;
  config.seed = kTrainSeed;
  models::TrainAndEvaluate(model.get(), golden.data, config);
  model->SetTraining(false);
  const Tensor forecast =
      model->Forward(Variable(golden.input, false)).value();
  const std::string text = EncodeFixture(name, nn::SaveStateDict(*model),
                                         ForecastHex(forecast));
  const Status written = AtomicWriteFile(FixturePath(name), text, false);
  ASSERT_TRUE(written.ok()) << written.ToString();
}

class ForecastGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ForecastGoldenTest, ForwardMatchesGoldenByteForByte) {
  const std::string name = GetParam();
  if (RegenRequested()) RegenerateFixture(name);

  StatusOr<std::string> text = ReadFileToString(FixturePath(name));
  ASSERT_TRUE(text.ok()) << "missing golden fixture " << FixturePath(name)
                         << " — run tools/regen_goldens.sh";
  StatusOr<Fixture> fixture = DecodeFixture(text.value(), name);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();

  models::ForecastingModelPtr model = BuildModel(name);
  const Status loaded = nn::LoadStateDict(model.get(), fixture.value().state);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  // The state-dict codec round-trips the fixture's weights byte-for-byte.
  EXPECT_EQ(nn::SaveStateDict(*model), fixture.value().state) << name;
  model->SetTraining(false);
  const Tensor forecast =
      model->Forward(Variable(Context().input, false)).value();
  EXPECT_EQ(ForecastHex(forecast), fixture.value().forecast_hex)
      << name
      << ": forward drifted from the golden fixture. If the numeric change "
         "is intentional, regenerate with tools/regen_goldens.sh and review "
         "the fixture diff.";
}

INSTANTIATE_TEST_SUITE_P(AllModels, ForecastGoldenTest,
                         ::testing::ValuesIn(GoldenModelNames()),
                         [](const auto& info) { return Slug(info.param); });

}  // namespace
}  // namespace autocts
