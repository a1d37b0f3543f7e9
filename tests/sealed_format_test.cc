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
// hostile-shape cases.
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
Codec RoundTrip(StatusOr<T> (*decode)(const std::string&),
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

}  // namespace
}  // namespace autocts
