// Corruption sweep over the sealed text formats (common/file_io.h): the
// search checkpoint, the eval checkpoint and the model artifact. Each runs
// from its golden encoding in tests/testdata/sealed_golden_v1/, written
// once from the fixtures in tests/testing/fixtures.h:
//   * the golden decodes and re-encodes byte-for-byte, which pins the
//     on-disk bytes across commits;
//   * a 0x01 and a 0x80 flip at every byte, every truncation length (down
//     to dropping only the final newline) and trailing garbage are all
//     rejected with InvalidArgument;
//   * every count-prefixed field given a hostile count is InvalidArgument,
//     and nothing of the claimed size is allocated: no unpooled BufferPool
//     block (the only kind above 2^24 elements) and no growth of the
//     resident high-water mark. An artifact geometry field that its state
//     dict does not bound is refused by the same decode.
// The state-dict codec, embedded in every artifact, gets the same
// hostile-shape cases. Every record parser reads through the one token
// grammar (TokenCursor in common/text_codec.h), so:
//   * a sweep replaces each token of each record of every format (sealed
//     ones resealed) with hostile tokens, and every decode returns OK or
//     InvalidArgument, never an abort;
//   * the tokens the grammar refuses are InvalidArgument, and every
//     legacy input the writers ever produced still decodes;
//   * a metrics state the registry cannot hold (bad histogram bounds, a
//     name twice, a name of another kind than its registration) is
//     InvalidArgument, not an abort.
//
// After a deliberate format change, regenerate the goldens with
//   AUTOCTS_REGEN_GOLDENS=1 build/tests/sealed_format_test
// and review the diff: any byte that moves breaks every file on disk.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "core/search_metrics.h"
#include "nn/linear.h"
#include "nn/state_dict.h"
#include "testing/fixtures.h"

namespace autocts {
namespace {

#ifndef AUTOCTS_TESTDATA_DIR
#error "AUTOCTS_TESTDATA_DIR must be defined by the build"
#endif

using fixtures::Footprint;
using fixtures::MeasureFootprint;

using Codec = std::function<StatusOr<std::string>(const std::string&)>;

// One substring edit applied to a golden payload before resealing.
struct Edit {
  std::string from;
  std::string to;
};

struct HostileCount {
  std::string field;
  std::vector<Edit> edits;
};

struct SealedFormat {
  std::string name;  // golden file stem and test-name suffix
  std::function<std::string()> encode_fixture;
  Codec round_trip;  // decode, then re-encode
  std::vector<HostileCount> hostile_counts;
};

template <typename T>
Codec RoundTrip(StatusOr<T> (*decode)(std::string),
                std::string (*encode)(const T&)) {
  return [decode, encode](const std::string& text) -> StatusOr<std::string> {
    StatusOr<T> decoded = decode(text);
    if (!decoded.ok()) return decoded.status();
    return encode(decoded.value());
  };
}

// A claim far above the largest pool bucket (2^24 elements).
constexpr char kHuge[] = "100000000";

std::vector<SealedFormat> Formats() {
  const std::string huge = kHuge;
  return {
      {"search_checkpoint",
       [] {
         return core::EncodeSearchCheckpoint(
             fixtures::SyntheticSearchCheckpoint());
       },
       RoundTrip<core::SearchCheckpoint>(core::DecodeSearchCheckpoint,
                                         core::EncodeSearchCheckpoint),
       {{"order_train", {{"order_train = 3 ", "order_train = " + huge + " "}}},
        {"order_val", {{"order_val = 2 ", "order_val = " + huge + " "}}},
        {"param shape", {{"layer.b 1 2 ", "layer.b 1 " + huge + " "}}},
        {"param shape overflow",
         {{"layer.w 2 2 2 ", "layer.w 3 2097152 2097152 2097152 "}}},
        {"param negative dim", {{"layer.b 1 2 ", "layer.b 1 -2 "}}},
        {"arch shape", {{"cell0.alpha 1 3 ", "cell0.alpha 1 " + huge + " "}}},
        {"adam moment shape",
         {{"adam_t_m = 0 1 1 3 ", "adam_t_m = 0 1 1 " + huge + " "}}},
        {"param_count",
         {{"param_count = 2\n", "param_count = " + huge + "\n"}}},
        {"arch_count", {{"arch_count = 1\n", "arch_count = " + huge + "\n"}}},
        {"adam slots", {{"adam_w = 5 2\n", "adam_w = 5 " + huge + "\n"}}},
        {"metrics_count",
         {{"metrics_count = 0\n", "metrics_count = " + huge + "\n"}}}}},
      {"eval_checkpoint",
       [] {
         return core::EncodeEvalCheckpoint(fixtures::SampleEvalCheckpoint());
       },
       RoundTrip<core::EvalCheckpoint>(core::DecodeEvalCheckpoint,
                                       core::EncodeEvalCheckpoint),
       {{"per-horizon count",
         {{" 0x1p-2 2 0x1p+0 ", " 0x1p-2 " + huge + " 0x1p+0 "}}},
        {"completed", {{"completed = 2\n", "completed = " + huge + "\n"}}},
        {"failures", {{"failures = 1\n", "failures = " + huge + "\n"}}}}},
      {"model_artifact",
       [] { return serve::EncodeModelArtifact(fixtures::CompactArtifact()); },
       RoundTrip<serve::ModelArtifact>(serve::DecodeModelArtifact,
                                       serve::EncodeModelArtifact),
       {{"adjacency shape",
         {{"\nadjacency = 1 2 3 3 ", "\nadjacency = 1 2 " + huge + " 3 "}}},
        {"scaler lists",
         {{"\nin_features = 2\n", "\nin_features = " + huge + "\n"},
          {"\nscaler_features = 2\n", "\nscaler_features = " + huge + "\n"}}},
        {"genotype_lines",
         {{"\ngenotype_lines = 10\n", "\ngenotype_lines = " + huge + "\n"}}},
        {"genotype num_blocks",
         {{"\ngenotype = num_blocks = 2\n",
           "\ngenotype = num_blocks = " + huge + "\n"}}},
        {"state_lines",
         {{"\nstate_lines = 2\n", "\nstate_lines = " + huge + "\n"}}},
        {"state shape overflow",
         {{"embedding.weight 2 2 4 ",
           "embedding.weight 3 2097152 2097152 2097152 "}}},
        // Only the geometry check can refuse hidden_dim 2^20, which would
        // size [2^20, 2^21] head weights.
        {"hidden_dim beyond the state dict",
         {{"\nhidden_dim = 4\n", "\nhidden_dim = 1048576\n"}}},
        // Genotype::Validate refuses both before a model is built: an
        // operator the registry cannot create, and a node count the
        // blocks' edges cannot feed (which a forward would size by).
        {"unknown operator",
         {{"\ngenotype = edge = 0 0 1 identity\n",
           "\ngenotype = edge = 0 0 1 bogus_op\n"}}},
        {"genotype nodes_per_block",
         {{"\ngenotype = nodes_per_block = 3\n",
           "\ngenotype = nodes_per_block = " + huge + "\n"}}}}},
  };
}

const SealedFormat& FindFormat(const std::string& name) {
  static const std::vector<SealedFormat> formats = Formats();
  for (const SealedFormat& format : formats) {
    if (format.name == name) return format;
  }
  AUTOCTS_CHECK(false) << "no format " << name;
  return formats.front();
}

bool RegenRequested() {
  const char* env = std::getenv("AUTOCTS_REGEN_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

std::string GoldenPath(const SealedFormat& format) {
  return std::string(AUTOCTS_TESTDATA_DIR) + "/sealed_golden_v1/" +
         format.name + ".golden";
}

std::string Golden(const SealedFormat& format) {
  if (RegenRequested()) {
    const Status written = AtomicWriteFile(
        GoldenPath(format), format.encode_fixture(), /*keep_previous=*/false);
    AUTOCTS_CHECK(written.ok()) << written.ToString();
  }
  StatusOr<std::string> text = ReadFileToString(GoldenPath(format));
  AUTOCTS_CHECK(text.ok()) << text.status().ToString();
  return text.value();
}

// A hostile count must be refused before anything it sizes is allocated:
// every claim here is at least 10^8 elements (800 MB of doubles).
void ExpectNoAllocationForClaim(const Footprint& footprint,
                                const std::string& what) {
  EXPECT_EQ(footprint.unpooled_blocks, 0) << what;
  EXPECT_LT(footprint.peak_rss_growth_mb, 64.0) << what;
}

void ExpectInvalidArgument(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << what << ": " << status.ToString();
}

class SealedFormatTest : public ::testing::TestWithParam<SealedFormat> {};

TEST_P(SealedFormatTest, GoldenRoundTripsByteForByte) {
  const std::string golden = Golden(GetParam());
  StatusOr<std::string> reencoded = GetParam().round_trip(golden);
  ASSERT_TRUE(reencoded.ok()) << reencoded.status().ToString();
  EXPECT_EQ(reencoded.value(), golden);
  // The fixture still encodes to the pinned bytes.
  EXPECT_EQ(GetParam().encode_fixture(), golden);
}

TEST_P(SealedFormatTest, EveryBitFlipIsRejected) {
  const std::string golden = Golden(GetParam());
  for (const int mask : {0x01, 0x80}) {
    for (size_t i = 0; i < golden.size(); ++i) {
      std::string corrupt = golden;
      corrupt[i] = static_cast<char>(corrupt[i] ^ mask);
      ExpectInvalidArgument(GetParam().round_trip(corrupt).status(),
                            "flip " + std::to_string(mask) + " at byte " +
                                std::to_string(i));
    }
  }
}

TEST_P(SealedFormatTest, EveryTruncationIsRejected) {
  const std::string golden = Golden(GetParam());
  ASSERT_EQ(golden.back(), '\n');
  // Length size() - 1 drops only the final newline.
  for (size_t length = 0; length < golden.size(); ++length) {
    ExpectInvalidArgument(
        GetParam().round_trip(golden.substr(0, length)).status(),
        "truncation to " + std::to_string(length) + " bytes");
  }
}

TEST_P(SealedFormatTest, TrailingGarbageIsRejected) {
  const std::string golden = Golden(GetParam());
  for (const std::string& garbage :
       {std::string("x"), std::string("\n"), std::string("extra = 1\n"),
        golden}) {
    ExpectInvalidArgument(GetParam().round_trip(golden + garbage).status(),
                          "trailing " + std::to_string(garbage.size()) +
                              " bytes");
  }
}

TEST_P(SealedFormatTest, HostileCountsAreRejectedBeforeAllocating) {
  StatusOr<std::string> payload = UnsealText(Golden(GetParam()));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  for (const HostileCount& hostile : GetParam().hostile_counts) {
    std::string edited = payload.value();
    for (const Edit& edit : hostile.edits) {
      const size_t at = edited.find(edit.from);
      ASSERT_NE(at, std::string::npos) << hostile.field;
      ASSERT_EQ(edited.find(edit.from, at + 1), std::string::npos)
          << hostile.field << ": ambiguous edit";
      edited.replace(at, edit.from.size(), edit.to);
    }
    Status status;
    const Footprint footprint = MeasureFootprint(
        [&] { status = GetParam().round_trip(SealText(edited)).status(); });
    ExpectInvalidArgument(status, hostile.field);
    ExpectNoAllocationForClaim(footprint, hostile.field);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SealedFormatTest,
                         ::testing::ValuesIn(Formats()),
                         [](const auto& info) { return info.param.name; });

// The state-dict codec is not sealed on its own (artifacts embed it), but
// it shares the tensor text codec and its count rule.
TEST(StateDictCodec, HostileShapesAreInvalidArgumentNotAbort) {
  Rng rng(3);
  nn::Linear layer(2, 2, &rng);
  const std::string huge = kHuge;
  for (const std::string& record :
       {"param = weight 1 " + huge + " 0x1p+0\n",
        std::string("param = weight 3 2097152 2097152 2097152 0x1p+0\n"),
        std::string("param = weight 2 2 -2 0x1p+0\n"),
        "buffer = running 1 " + huge + "\n"}) {
    Status status;
    const Footprint footprint = MeasureFootprint(
        [&] { status = nn::LoadStateDict(&layer, record); });
    ExpectInvalidArgument(status, record);
    ExpectNoAllocationForClaim(footprint, record);
  }
}

// The metrics state embedded in search checkpoints follows the same rule.
TEST(MetricsStateCodec, HostileCountsAreInvalidArgument) {
  const std::string huge = kHuge;
  for (const std::string& state :
       {"obsv 1\nrow step 0 0 " + huge + " 0x1p+0",
        "obsv 1\nhist h " + huge + " 0x1p+0 1 0x1p+0 0x1p+0 0x1p+0 1 0"}) {
    obs::MetricsRegistry registry;
    Status status;
    const Footprint footprint =
        MeasureFootprint([&] { status = registry.DecodeState(state); });
    ExpectInvalidArgument(status, state);
    ExpectNoAllocationForClaim(footprint, state);
  }
}

// A state the registry cannot hold is refused before it reaches a CHECK
// in the Histogram constructor or in the searcher's next Get.
TEST(MetricsStateCodec, StatesTheRegistryCannotHoldAreInvalidArgument) {
  for (const std::string state :
       {"obsv 1\nhist h 2 0x1p+1 0x1p+0 0 0x0p+0 0x0p+0 0x0p+0 0 0 0",
        "obsv 1\nhist h 2 0x1p+0 0x1p+0 0 0x0p+0 0x0p+0 0x0p+0 0 0 0",
        "obsv 1\nhist h 2 nan 0x1p+0 0 0x0p+0 0x0p+0 0x0p+0 0 0 0",
        "obsv 1\nhist h 1 nan 0 0x0p+0 0x0p+0 0x0p+0 0 0",
        "obsv 1\ncounter a 1\ncounter a 2",
        "obsv 1\ncounter a 1\ngauge a 0x0p+0"}) {
    obs::MetricsRegistry registry;
    ExpectInvalidArgument(registry.DecodeState(state), state);
    EXPECT_TRUE(registry.ColumnNames().empty()) << state;
  }
  // A name the caller registered as a counter cannot come back a gauge:
  // the searcher's next GetCounter of it would abort.
  obs::MetricsRegistry registry;
  core::RegisterSearchMetrics(&registry);
  ExpectInvalidArgument(
      registry.DecodeState("obsv 1\ngauge steps_total 0x1p+0"), "kind");
  core::RegisterSearchMetrics(&registry);
  // Names it never registered, or registered under the same kind, decode.
  EXPECT_TRUE(registry.DecodeState("obsv 1\ncounter steps_total 3\n"
                                   "gauge other 0x1p+0")
                  .ok());
  EXPECT_EQ(registry.GetCounter(core::kMetricStepsTotal)->value(), 3);
}

// ---------------------------------------------------------------------------
// The one token grammar across every format.
// ---------------------------------------------------------------------------

// One document in one format: its payload (before the seal, if any) and its
// decode. A sealed payload is resealed after every edit.
struct Document {
  std::string name;
  std::string payload;
  bool sealed;
  std::function<Status(std::string)> decode;

  Status Decode(const std::string& edited) const {
    return decode(sealed ? SealText(edited) : edited);
  }
};

template <typename T>
std::function<Status(std::string)> DecodeStatus(
    StatusOr<T> (*decode)(std::string)) {
  return [decode](std::string text) { return decode(std::move(text)).status(); };
}

// A registry holding every search instrument, with values, histogram
// observations and a row, as a resumed search would carry.
std::string PopulatedSearchMetricsState() {
  obs::MetricsRegistry registry;
  core::RegisterSearchMetrics(&registry);
  registry.GetCounter(core::kMetricStepsTotal)->Set(3);
  registry.GetGauge(core::kMetricTau)->Set(4.5);
  obs::Histogram* histogram =
      registry.GetHistogram(core::kMetricGradNormWHist, {});
  for (const double value : {0.05, 0.7, 3.0, 80.0}) histogram->Observe(value);
  registry.AppendRow("step", 0, 3);
  return registry.EncodeState();
}

// A metrics state decodes into a registry with the search instruments
// registered, and the searcher's Gets of its names still succeed after.
Status DecodeIntoSearchRegistry(const std::string& state) {
  obs::MetricsRegistry registry;
  core::RegisterSearchMetrics(&registry);
  const Status status = registry.DecodeState(state);
  core::RegisterSearchMetrics(&registry);
  return status;
}

std::string UnsealedGolden(const std::string& name) {
  StatusOr<std::string> payload = UnsealText(Golden(FindFormat(name)));
  AUTOCTS_CHECK(payload.ok()) << payload.status().ToString();
  return payload.value();
}

std::vector<Document> Documents() {
  core::SearchCheckpoint checkpoint = fixtures::SyntheticSearchCheckpoint();
  checkpoint.metrics_state = PopulatedSearchMetricsState();
  StatusOr<std::string> checkpoint_payload =
      UnsealText(core::EncodeSearchCheckpoint(checkpoint));
  AUTOCTS_CHECK(checkpoint_payload.ok());
  return {
      {"search_checkpoint", checkpoint_payload.value(), true,
       [](std::string text) {
         StatusOr<core::SearchCheckpoint> decoded =
             core::DecodeSearchCheckpoint(std::move(text));
         if (!decoded.ok()) return decoded.status();
         return DecodeIntoSearchRegistry(decoded.value().metrics_state);
       }},
      {"eval_checkpoint", UnsealedGolden("eval_checkpoint"), true,
       DecodeStatus(core::DecodeEvalCheckpoint)},
      {"model_artifact", UnsealedGolden("model_artifact"), true,
       DecodeStatus(serve::DecodeModelArtifact)},
      {"candidate_set",
       core::EncodeCandidateSet(fixtures::MakeCandidateGenotypes(2)), false,
       DecodeStatus(core::DecodeCandidateSet)},
      {"genotype", fixtures::MakeCandidateGenotype(0).ToText(), false,
       DecodeStatus(core::Genotype::FromText)},
      {"metrics_state", PopulatedSearchMetricsState(), false,
       DecodeIntoSearchRegistry},
  };
}

const Document& FindDocument(const std::vector<Document>& documents,
                             const std::string& name) {
  for (const Document& document : documents) {
    if (document.name == name) return document;
  }
  AUTOCTS_CHECK(false) << "no document " << name;
  return documents.front();
}

// Runs under ASan in tools/tier1_verify.sh: a view into a freed or moved
// buffer anywhere in a decode shows up here.
TEST(TokenGrammar, HostileTokenSweepNeverAborts) {
  const std::vector<std::string> hostile = {
      "-1", "+1", "0x", "1e999", "nan", "9223372036854775808", "abc", ""};
  for (const Document& document : Documents()) {
    ASSERT_TRUE(document.Decode(document.payload).ok()) << document.name;
    const std::string& text = document.payload;
    int64_t edits = 0;
    // Every whitespace-separated token of every line, the keys included.
    size_t begin = text.find_first_not_of(" \n");
    while (begin != std::string::npos) {
      const size_t end = std::min(text.find_first_of(" \n", begin), text.size());
      for (const std::string& token : hostile) {
        const std::string edited =
            text.substr(0, begin) + token + text.substr(end);
        const Status status = document.Decode(edited);
        EXPECT_TRUE(status.ok() ||
                    status.code() == StatusCode::kInvalidArgument)
            << document.name << ": token at byte " << begin << " -> '"
            << token << "': " << status.ToString();
        ++edits;
      }
      begin = text.find_first_not_of(" \n", end);
    }
    EXPECT_GT(edits, 100) << document.name;
  }
}

// Tokens no writer writes are InvalidArgument.
TEST(TokenGrammar, RefusedTokensAreInvalidArgument) {
  const std::vector<Document> documents = Documents();
  struct Refusal {
    std::string document;
    Edit edit;
  };
  const Refusal refusals[] = {
      // A '+' sign.
      {"search_checkpoint", {"\ncursor = 1 2\n", "\ncursor = +1 2\n"}},
      {"eval_checkpoint", {"\nresult = 0 2 ", "\nresult = +0 2 "}},
      {"eval_checkpoint", {"\nanomaly = 2 ", "\nanomaly = +2 "}},
      {"candidate_set", {"\ncandidate = 1\n", "\ncandidate = +1\n"}},
      {"metrics_state", {"\ncounter steps_total 3\n",
                         "\ncounter steps_total +3\n"}},
      // A '-' on an unsigned word (it wrapped to 2^64 - 1).
      {"search_checkpoint",
       {"\nrng = 4204209062293533097 ", "\nrng = -1 "}},
      // A number glued to the text after it.
      {"eval_checkpoint", {"\nfailed = 3 anomaly", "\nfailed = 3anomaly"}},
      // Trailing tokens after a genotype edge.
      {"model_artifact", {"\ngenotype = edge = 0 0 1 identity\n",
                          "\ngenotype = edge = 0 0 1 identity extra\n"}},
      {"genotype", {"\nedge = 0 0 1 ", "\nedge = 0 0 +1 "}},
  };
  for (const Refusal& refusal : refusals) {
    const Document& document = FindDocument(documents, refusal.document);
    std::string edited = document.payload;
    const size_t at = edited.find(refusal.edit.from);
    ASSERT_NE(at, std::string::npos) << refusal.edit.from;
    ASSERT_EQ(edited.find(refusal.edit.from, at + 1), std::string::npos)
        << refusal.edit.from << ": ambiguous edit";
    edited.replace(at, refusal.edit.from.size(), refusal.edit.to);
    ExpectInvalidArgument(document.Decode(edited),
                          document.name + ": " + refusal.edit.to);
  }
}

// Every form a writer of this repository ever produced still decodes.
TEST(TokenGrammar, LegacyInputsStillDecode) {
  // A search checkpoint from before the metrics block.
  std::string payload = UnsealedGolden("search_checkpoint");
  const std::string metrics_count = "metrics_count = 0\n";
  payload.erase(payload.find(metrics_count), metrics_count.size());
  StatusOr<core::SearchCheckpoint> checkpoint =
      core::DecodeSearchCheckpoint(SealText(payload));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_TRUE(checkpoint.value().metrics_state.empty());

  // Tensor values in the 17-significant-digit decimal form of older files.
  payload = UnsealedGolden("search_checkpoint");
  const std::string hex = "layer.b 1 2 -0x0p+0 0x1.1ccf385ebc8ap+1023";
  payload.replace(payload.find(hex), hex.size(),
                  "layer.b 1 2 -0 0.10000000000000001");
  checkpoint = core::DecodeSearchCheckpoint(SealText(payload));
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint.value().parameters[1].second.data()[1], 0.1);

  // An eval failure without a status-code prefix keeps its message.
  StatusOr<core::EvalCheckpoint> eval = core::DecodeEvalCheckpoint(
      Golden(FindFormat("eval_checkpoint")));
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  ASSERT_EQ(eval.value().failed.size(), 1u);
  EXPECT_EQ(eval.value().failed[0].second,
            "anomaly: non-finite loss (loss=nan)");

  // A bare genotype read as a candidate set.
  const core::Genotype genotype = fixtures::MakeCandidateGenotype(1);
  StatusOr<std::vector<core::Genotype>> candidates =
      core::DecodeCandidateSet(genotype.ToText());
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  ASSERT_EQ(candidates.value().size(), 1u);
  EXPECT_EQ(candidates.value()[0], genotype);
}

}  // namespace
}  // namespace autocts
