#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/text_codec.h"

namespace autocts {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_DEATH(bad.value(), "");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-5.0, -1.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, -1.0);
  }
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, UniformIntIsUnbiasedAcrossBuckets) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, 500);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(TextCodec, RoundTripAllTypes) {
  TextWriter writer;
  writer.Add("name", "metr-la");
  writer.AddInt("nodes", 207);
  writer.Add("edge", "0 1 gdcc");
  writer.Add("edge", "1 2 dgcn");
  StatusOr<TextReader> reader = TextReader::Parse(writer.Release());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Get("name").value(), "metr-la");
  EXPECT_EQ(reader.value().GetInt("nodes").value(), 207);
  EXPECT_EQ(reader.value().GetAll("edge").size(), 2u);
  EXPECT_EQ(reader.value().GetAll("edge")[1], "1 2 dgcn");
}

// A document without a record it must hold is malformed input.
TEST(TextCodec, MissingKeyIsInvalidArgument) {
  StatusOr<TextReader> reader = TextReader::Parse("a = 1\n");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Get("b").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TextCodec, MalformedLineRejected) {
  EXPECT_FALSE(TextReader::Parse("no equals sign\n").ok());
  EXPECT_FALSE(TextReader::Parse("= empty key\n").ok());
}

TEST(TextCodec, CommentsAndBlankLinesIgnored) {
  StatusOr<TextReader> reader =
      TextReader::Parse("# comment\n\n  key =  value  \n");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Get("key").value(), "value");
}

TEST(TextCodec, NonNumericValueRejectedByTypedGetters) {
  StatusOr<TextReader> reader = TextReader::Parse("k = abc\n");
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value().GetInt("k").ok());
}

TEST(StringUtil, SplitAndStrip) {
  const std::vector<std::string> parts = SplitString(" a, b ,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(StripWhitespace("  x y \t"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(watch.Seconds(), 0.0);
  EXPECT_GE(watch.Millis(), watch.Seconds() * 1000.0 - 1e-6);
  watch.Reset();
  EXPECT_LT(watch.Seconds(), 1.0);
}

TEST(Check, PassesAndFails) {
  AUTOCTS_CHECK(true) << "never printed";
  AUTOCTS_CHECK_EQ(2, 2);
  AUTOCTS_CHECK_LT(1, 2);
  EXPECT_DEATH(AUTOCTS_CHECK_EQ(1, 2) << "boom", "boom");
  EXPECT_DEATH(AUTOCTS_CHECK(false), "CHECK failed");
}

TEST(Logging, LevelsFilterMessages) {
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  AUTOCTS_LOG(INFO) << "should be suppressed";
  SetMinLogLevel(LogLevel::kInfo);
  AUTOCTS_LOG(INFO) << "visible (smoke)";
}

TEST(TextCodec, ExactDoubleRoundTripsBitPatterns) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      3.141592653589793,
      4.9406564584124654e-324,  // Smallest positive denormal.
      1e-310,                   // Subnormal.
      2.2250738585072014e-308,  // DBL_MIN.
      1.7976931348623157e308,   // DBL_MAX.
      -6.02214076e23,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (const double value : values) {
    const std::string text = FormatExactDouble(value);
    double parsed = 0.0;
    ASSERT_TRUE(ParseExactDouble(text, &parsed)) << text;
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &value, sizeof(want));
    std::memcpy(&got, &parsed, sizeof(got));
    EXPECT_EQ(want, got) << value << " -> " << text << " -> " << parsed;
  }
  // Finite values serialize as hex-floats (exact images of the bits).
  EXPECT_EQ(FormatExactDouble(0.1).rfind("0x1.", 0), 0u);
}

TEST(TextCodec, ParseExactDoubleAcceptsDecimalAndRejectsJunk) {
  double parsed = 0.0;
  EXPECT_TRUE(ParseExactDouble("0.25", &parsed));  // Legacy decimal form.
  EXPECT_EQ(parsed, 0.25);
  EXPECT_TRUE(ParseExactDouble("-1.5e3", &parsed));
  EXPECT_EQ(parsed, -1500.0);
  EXPECT_FALSE(ParseExactDouble("", &parsed));
  EXPECT_FALSE(ParseExactDouble("abc", &parsed));
  EXPECT_FALSE(ParseExactDouble("1.5junk", &parsed));
  EXPECT_FALSE(ParseExactDouble("0x1.8p+1x", &parsed));
}

TEST(TextCodec, NextTokenSplitsOnIstreamWhitespace) {
  std::string_view text = " a\tbc\r\n d \v";
  EXPECT_EQ(NextToken(&text), "a");
  EXPECT_EQ(NextToken(&text), "bc");
  EXPECT_EQ(NextToken(&text), "d");
  EXPECT_EQ(NextToken(&text), "");
  EXPECT_TRUE(text.empty());
}

TEST(TextCodec, NextLineEndsAtEachNewline) {
  std::string_view text = "a = 1\n\nb\r\nlast";
  EXPECT_EQ(NextLine(&text), "a = 1");
  EXPECT_EQ(NextLine(&text), "");
  EXPECT_EQ(NextLine(&text), "b\r");
  EXPECT_EQ(NextLine(&text), "last");
  EXPECT_TRUE(text.empty());
  // A final newline opens no empty line.
  text = "x\n";
  EXPECT_EQ(NextLine(&text), "x");
  EXPECT_TRUE(text.empty());
}

TEST(TextCodec, WriterJoinsTokensWithSingleSpaces) {
  TextWriter writer;
  writer.Record("r").Int(-3).Int(18446744073709551615u).Double(0.1).Word("w");
  writer.End();
  writer.Record("empty").End();
  writer.Add("k", "v w");
  writer.AddInt("n", 7);
  EXPECT_EQ(writer.Release(),
            "r = -3 18446744073709551615 0x1.999999999999ap-4 w\n"
            "empty = \n"
            "k = v w\n"
            "n = 7\n");
}

// A short document sits inline in a std::string, so moving the string
// would move its bytes. The reader keeps its text on the heap: its views
// stay valid when the reader moves and in its slices.
TEST(TextCodec, ReaderViewsSurviveMovesAndSlices) {
  StatusOr<TextReader> parsed = TextReader::Parse("a = 1\nb = 2\n");
  ASSERT_TRUE(parsed.ok());
  TextReader moved = std::move(parsed).value();
  const TextReader reader = std::move(moved);
  EXPECT_EQ(reader.Get("b").value(), "2");
  ASSERT_EQ(reader.entries().size(), 2u);
  const TextReader slice = reader.Slice(1, 2);
  EXPECT_FALSE(slice.Get("a").ok());
  EXPECT_EQ(slice.GetInt("b").value(), 2);
}

TEST(TokenCursor, ReadsEachKindAndTheRestOfTheRecord) {
  TokenCursor in(" -7 18446744073709551615 0x1p-1 0.25 word free text ");
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  ASSERT_TRUE(in.Int(&i));
  EXPECT_EQ(i, -7);
  ASSERT_TRUE(in.Int(&u));
  EXPECT_EQ(u, 18446744073709551615u);
  ASSERT_TRUE(in.Double(&d));
  EXPECT_EQ(d, 0.5);
  ASSERT_TRUE(in.Double(&d));  // The 17-digit decimal form of older files.
  EXPECT_EQ(d, 0.25);
  EXPECT_EQ(in.Word(), "word");
  EXPECT_EQ(StripWhitespace(in.rest()), "free text");
  EXPECT_EQ(in.bytes_left(), 11);
  EXPECT_FALSE(in.AtEnd());
  EXPECT_EQ(in.Word(), "free");
  EXPECT_EQ(in.Word(), "text");
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(in.Word(), "");
  EXPECT_FALSE(in.Int(&i));
}

// No writer writes a '+' sign, a glued suffix or a '-' on an unsigned word
// (which `operator>>` wraps to 2^64 - 1), so the grammar refuses them.
TEST(TokenCursor, RefusesSignsAndSuffixesNoWriterWrites) {
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0.0;
  for (const char* token : {"+5", "5x", "0x10", "1.0", "9223372036854775808",
                            "-9223372036854775809", "abc"}) {
    EXPECT_FALSE(TokenCursor(token).Int(&i)) << token;
  }
  for (const char* token : {"-1", "+1", "18446744073709551616", "1e3"}) {
    EXPECT_FALSE(TokenCursor(token).Int(&u)) << token;
  }
  for (const char* token : {"+1.0", "0x", "1e999", "0x1p+0x", "--1"}) {
    EXPECT_FALSE(TokenCursor(token).Double(&d)) << token;
  }
  EXPECT_TRUE(TokenCursor("-9223372036854775808").Int(&i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
}

// A random double's bits, weighted toward the values with a spelling of
// their own: +-0, denormals, fractions ending in zero digits and the
// extreme exponents; a third are uniform bit patterns (NaN and inf too).
uint64_t WeightedDoubleBits(Rng* rng) {
  const uint64_t sign = rng->Next() & (uint64_t{1} << 63);
  uint64_t fraction = rng->Next() & ((uint64_t{1} << 52) - 1);
  if (rng->Bernoulli(0.5)) {
    fraction &= ~uint64_t{0} << (4 * rng->UniformInt(14));
  }
  static constexpr uint64_t kExtremeExponents[] = {1, 2, 1022, 1023, 1024,
                                                   2045, 2046};
  switch (rng->UniformInt(6)) {
    case 0:
      return sign;
    case 1:
      return sign | fraction;  // A denormal (or zero).
    case 2:
      return sign | kExtremeExponents[rng->UniformInt(7)] << 52 | fraction;
    case 3:
      return sign | static_cast<uint64_t>(1 + rng->UniformInt(2046)) << 52 |
             fraction;
    default:
      return rng->Next();
  }
}

// Bit-identical, or both NaN of the same sign ("nan" and "-nan" keep no
// payload).
void ExpectSameDouble(double want, double got, std::string_view token) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << token;
    EXPECT_EQ(std::signbit(want), std::signbit(got)) << token;
    return;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(got))
      << token;
}

TEST(TextCodec, ExactDoubleRoundTripsWeightedRandomBits) {
  Rng rng(24);
  for (int i = 0; i < 1'000'000; ++i) {
    const double value = std::bit_cast<double>(WeightedDoubleBits(&rng));
    const std::string text = FormatExactDouble(value);
    double parsed = 0.0;
    ASSERT_TRUE(ParseExactDouble(text, &parsed)) << text;
    ExpectSameDouble(value, parsed, text);
  }
}

// The writer builds glibc's "%a" spelling from the bits: pinned for the
// non-finite values, and equal to glibc's printf on a million weighted
// random doubles wherever the C library is glibc.
TEST(TextCodec, FormatExactDoubleSpellsAsGlibcPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(FormatExactDouble(kInf), "inf");
  EXPECT_EQ(FormatExactDouble(-kInf), "-inf");
  EXPECT_EQ(FormatExactDouble(nan), "nan");
  EXPECT_EQ(FormatExactDouble(-nan), "-nan");
  EXPECT_EQ(FormatExactDouble(0.1), "0x1.999999999999ap-4");
#if defined(__GLIBC__)
  Rng rng(27);
  for (int i = 0; i < 1'000'000; ++i) {
    const double value = std::bit_cast<double>(WeightedDoubleBits(&rng));
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    ASSERT_EQ(FormatExactDouble(value), buffer);
  }
#endif
}

// The acceptance rule of ParseExactDouble, written against std::from_chars:
// a hex token is taken exactly when FormatExactDouble writes it for the
// value from_chars reads, any other token exactly when from_chars reads all
// of it.
bool ReferenceParseExactDouble(std::string_view token, double* value) {
  const char* last = token.data() + token.size();
  const bool negative = token.starts_with('-');
  const std::string_view body = token.substr(negative ? 1 : 0);
  double parsed = 0.0;
  if (body.starts_with("0x")) {
    const auto [end, ec] = std::from_chars(body.data() + 2, last, parsed,
                                           std::chars_format::hex);
    if (ec != std::errc() || end != last) return false;
    if (negative) parsed = -parsed;
    if (FormatExactDouble(parsed) != token) return false;
  } else {
    const auto [end, ec] = std::from_chars(token.data(), last, parsed);
    if (ec != std::errc() || end != last) return false;
  }
  *value = parsed;
  return true;
}

TEST(TextCodec, ParseExactDoubleAcceptsMutatedTokensLikeTheReference) {
  constexpr std::string_view kAlphabet = "0123456789abcdefABCDEFxXpP+-.eEin ";
  Rng rng(25);
  for (int i = 0; i < 200'000; ++i) {
    const double value = std::bit_cast<double>(WeightedDoubleBits(&rng));
    std::string token;
    if (rng.Bernoulli(0.75)) {
      token = FormatExactDouble(value);
    } else {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value);
      token = buffer;
    }
    for (int64_t edits = 1 + rng.UniformInt(2); edits > 0; --edits) {
      const size_t at = static_cast<size_t>(rng.UniformInt(
          static_cast<int64_t>(token.size()) + 1));
      const char c = kAlphabet[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(kAlphabet.size())))];
      switch (rng.UniformInt(3)) {
        case 0:
          if (at < token.size()) token[at] = c;
          break;
        case 1:
          token.insert(at, 1, c);
          break;
        default:
          if (at < token.size()) token.erase(at, 1);
      }
    }
    double want = 0.0;
    double got = 0.0;
    const bool accepted = ParseExactDouble(token, &got);
    ASSERT_EQ(accepted, ReferenceParseExactDouble(token, &want)) << token;
    if (accepted) ExpectSameDouble(want, got, token);
  }
}

// Hex spellings that no writer produces. std::from_chars reads each of them
// in full; the "%a" grammar refuses them like a '+' sign.
TEST(TextCodec, ParseExactDoubleRefusesHexSpellingsNoWriterWrites) {
  for (const char* token : {
           "0x1.Ap+0",               // uppercase digit
           "0x1.8P+0",               // uppercase exponent mark
           "0x1.8p1", "0x1p0",       // unsigned exponent
           "0x1.fffffffffffff8p+0",  // more than 13 digits
           "0x1p-1023",              // a denormal spelled as a normal
           "0x.8p1",                 // no lead digit
           "0x1.80p+0", "0x1.p+0",   // trailing fraction zero, empty fraction
           "0x1p+01", "0x1p-0",      // exponent leading zero, "-0"
           "0x2p+0", "0x0.8p-1021",  // lead digit, denormal exponent
           "0x0.0p-1022", "-0x0p-0",
       }) {
    const std::string_view text = token;
    double parsed = 0.0;
    const auto [end, ec] = std::from_chars(
        text.data() + (text[0] == '-' ? 3 : 2), text.data() + text.size(),
        parsed, std::chars_format::hex);
    EXPECT_TRUE(ec == std::errc() && end == text.data() + text.size())
        << token;
    EXPECT_FALSE(ParseExactDouble(token, &parsed)) << token;
  }
  // The spellings at the edges of the grammar, with their exact bits.
  const std::pair<const char*, uint64_t> accepted[] = {
      {"0x0p+0", 0},
      {"-0x0p+0", uint64_t{1} << 63},
      {"0x0.0000000000001p-1022", 1},
      {"0x0.8p-1022", uint64_t{1} << 51},
      {"0x1p-1022", uint64_t{1} << 52},
      {"0x1p+0", uint64_t{1023} << 52},
      {"-0x1.8p+1",
       uint64_t{1} << 63 | uint64_t{1024} << 52 | uint64_t{1} << 51},
      {"0x1.fffffffffffffp+1023", 0x7FEFFFFFFFFFFFFFu},
  };
  for (const auto& [token, bits] : accepted) {
    double parsed = 0.0;
    ASSERT_TRUE(ParseExactDouble(token, &parsed)) << token;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed), bits) << token;
    EXPECT_EQ(FormatExactDouble(parsed), token);
  }
}

// Every byte splits tokens, ends a record and is stripped exactly when
// istream extraction skips it.
TEST(TextCodec, WhitespaceIsTheIstreamSetOnEveryByte) {
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const std::string text = std::string("a") + c + "b";
    std::istringstream stream(text);
    std::string first;
    stream >> first;
    const bool space = first == "a";
    std::string_view rest = text;
    EXPECT_EQ(NextToken(&rest), first) << byte;
    EXPECT_EQ(NextToken(&rest), space ? "b" : "") << byte;
    EXPECT_EQ(TokenCursor(std::string(1, c)).AtEnd(), space) << byte;
    const std::string padded = std::string(1, c) + "x" + c;
    EXPECT_EQ(StripWhitespace(padded), space ? "x" : padded) << byte;
  }
}

// Bit-at-a-time CRC-32, the definition the table-driven Crc32 implements.
uint32_t BitwiseCrc32(const char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(26);
  std::string bytes(64 * 1024 + 16, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size),
                BitwiseCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
  for (int i = 0; i < 64; ++i) {
    const size_t offset = static_cast<size_t>(rng.UniformInt(16));
    const size_t size = static_cast<size_t>(rng.UniformInt(64 * 1024 + 1));
    ASSERT_EQ(Crc32(bytes.data() + offset, size),
              BitwiseCrc32(bytes.data() + offset, size))
        << "offset " << offset << " size " << size;
  }
}

TEST(Crc32, MatchesKnownVectorsAndDetectsChanges) {
  // The standard CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  const std::string text = "param = w 1 2 0x1p+0 0x1p+1\n";
  const uint32_t crc = Crc32(text);
  for (size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(Crc32(mutated), crc) << "flip at byte " << i;
  }
  EXPECT_NE(Crc32(text.substr(0, text.size() - 1)), crc);
}

TEST(FileIo, AtomicWriteRotatesGenerations) {
  const std::string path = testing::TempDir() + "common_test_atomic";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  ASSERT_TRUE(AtomicWriteFile(path, "one").ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".prev"));
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "one");

  ASSERT_TRUE(AtomicWriteFile(path, "two").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "two");
  EXPECT_EQ(ReadFileToString(path + ".prev").value(), "one");

  ASSERT_TRUE(AtomicWriteFile(path, "three").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "three");
  EXPECT_EQ(ReadFileToString(path + ".prev").value(), "two");

  // keep_previous=false replaces in place without touching .prev.
  ASSERT_TRUE(AtomicWriteFile(path, "four", /*keep_previous=*/false).ok());
  EXPECT_EQ(ReadFileToString(path).value(), "four");
  EXPECT_EQ(ReadFileToString(path + ".prev").value(), "two");

  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

TEST(FileIo, ReadMissingFileIsNotFound) {
  const StatusOr<std::string> result =
      ReadFileToString(testing::TempDir() + "common_test_never_written");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace autocts
