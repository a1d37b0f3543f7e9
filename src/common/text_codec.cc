#include "common/text_codec.h"

#include <algorithm>
#include <array>
#include <bit>

namespace autocts {
namespace {

// The whitespace istream extraction skips in the "C" locale: ' ' and
// '\t'..'\r' (\t \n \v \f \r). Every token and line boundary of the codec
// is this one predicate.
bool IsSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

// The value of each hex digit "%a" writes ('0'-'9', 'a'-'f'); every other
// byte maps to kNotHex, so an OR of the values read exceeds 0xF exactly when
// one byte was no digit. A table rather than range tests, because random
// digits mispredict the branches.
constexpr uint8_t kNotHex = 0xFF;
constexpr std::array<uint8_t, 256> kHexDigit = [] {
  std::array<uint8_t, 256> table{};
  table.fill(kNotHex);
  for (uint8_t d = 0; d < 10; ++d) table['0' + d] = d;
  for (uint8_t d = 0; d < 6; ++d) table['a' + d] = 10 + d;
  return table;
}();

// The hex-float grammar of every file and frame, spelled as glibc's "%a"
// spells a double (after an optional '-' and "0x"):
//   normals     1[.h{1,13}]p(+|-)d+  exponent -1022..1023
//   denormals   0.h{1,13}p-1022
//   zero        0p+0
// The fraction has no trailing zero and the exponent no leading one (zero's
// is "+0"), so every double has one spelling. WriteHexFloat and
// ParseHexFloatBits are its two sides and call no C library routine: C
// leaves a denormal's lead digit to the library, which may print the
// smallest denormal as "0x1p-1074" rather than "0x0.0000000000001p-1022".

// Longest spelling: "-0x1." + 13 digits + "p-1022".
constexpr size_t kMaxHexFloat = 24;

// Writes the spelling of `value` at `out` ("inf" and "nan" for the
// non-finite, after a '-' for a set sign bit); returns its end.
char* WriteHexFloat(double value, char* out) {
  constexpr uint64_t kFractionMask = (uint64_t{1} << 52) - 1;
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const uint64_t fraction = bits & kFractionMask;
  const int biased = static_cast<int>(bits >> 52 & 0x7FF);
  if (bits >> 63 != 0) *out++ = '-';
  if (biased == 0x7FF) {
    return std::copy_n(fraction == 0 ? "inf" : "nan", 3, out);
  }
  const int exponent =
      biased != 0 ? biased - 1023 : (fraction != 0 ? -1022 : 0);
  *out++ = '0';
  *out++ = 'x';
  *out++ = biased != 0 ? '1' : '0';
  if (fraction != 0) {
    *out++ = '.';
    // The 13 digits from the top, without the trailing zero ones.
    const int digits = 13 - std::countr_zero(fraction) / 4;
    for (int i = 0; i < digits; ++i) {
      out[i] = "0123456789abcdef"[fraction >> (48 - 4 * i) & 0xF];
    }
    out += digits;
  }
  *out++ = 'p';
  *out++ = exponent < 0 ? '-' : '+';
  return std::to_chars(out, out + 4, exponent < 0 ? -exponent : exponent).ptr;
}

// The IEEE-754 bits of a hex-float in the grammar above, read from after
// the sign and "0x"; any other spelling is refused.
bool ParseHexFloatBits(const char* p, const char* last, uint64_t* bits) {
  if (p == last) return false;
  const char lead = *p++;
  if (lead != '0' && lead != '1') return false;
  uint64_t fraction = 0;
  int64_t digits = 0;
  if (p != last && *p == '.') {
    const char* first_digit = ++p;
    unsigned seen = 0;
    for (; p != last && *p != 'p'; ++p) {
      const uint8_t digit = kHexDigit[static_cast<unsigned char>(*p)];
      seen |= digit;
      fraction = fraction << 4 | digit;
    }
    digits = p - first_digit;
    if (digits == 0 || digits > 13 || seen > 0xF || (fraction & 0xF) == 0) {
      return false;
    }
    fraction <<= 4 * (13 - digits);
  }
  // 'p', a sign and one to four digits, the first non-zero unless alone.
  if (last - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) return false;
  const bool negative_exponent = p[1] == '-';
  p += 2;
  if (last - p > 4 || (*p == '0' && last - p > 1)) return false;
  int64_t exponent = 0;
  for (; p != last; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) return false;
    exponent = exponent * 10 + digit;
  }
  if (negative_exponent) {
    if (exponent == 0) return false;
    exponent = -exponent;
  }
  if (lead == '1') {
    if (exponent < -1022 || exponent > 1023) return false;
    *bits = static_cast<uint64_t>(exponent + 1023) << 52 | fraction;
    return true;
  }
  // "0p+0", or a denormal: a non-zero fraction (its last digit is) at the
  // exponent of the smallest normal.
  *bits = fraction;
  return digits == 0 ? exponent == 0 : exponent == -1022;
}

}  // namespace

void TextWriter::Add(std::string_view key, std::string_view value) {
  Record(key).Word(value).End();
}

void TextWriter::AddInt(std::string_view key, int64_t value) {
  Record(key).Int(value).End();
}

TextWriter& TextWriter::Record(std::string_view key) {
  text_ += key;
  text_ += " = ";
  first_token_ = true;
  return *this;
}

void TextWriter::Separate() {
  if (!first_token_) text_ += ' ';
  first_token_ = false;
}

TextWriter& TextWriter::Double(double value) {
  Separate();
  char buffer[kMaxHexFloat];
  text_.append(buffer, WriteHexFloat(value, buffer));
  return *this;
}

TextWriter& TextWriter::Word(std::string_view word) {
  Separate();
  text_ += word;
  return *this;
}

StatusOr<TextReader> TextReader::Parse(std::string text) {
  TextReader reader;
  reader.text_ = std::make_shared<const std::string>(std::move(text));
  std::string_view rest = *reader.text_;
  int line_number = 0;
  while (!rest.empty()) {
    ++line_number;
    const std::string_view line = StripWhitespace(NextLine(&rest));
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " has no '=': " + std::string(line));
    }
    const std::string_view key = StripWhitespace(line.substr(0, eq));
    if (key.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " has empty key");
    }
    reader.entries_.push_back({key, StripWhitespace(line.substr(eq + 1))});
  }
  return reader;
}

TextReader TextReader::Slice(size_t first, size_t last) const {
  TextReader slice;
  slice.text_ = text_;
  slice.entries_.assign(entries_.begin() + first, entries_.begin() + last);
  return slice;
}

StatusOr<std::string_view> TextReader::Get(std::string_view key) const {
  for (const Entry& entry : entries_) {
    if (entry.key == key) return entry.value;
  }
  return Status::InvalidArgument("missing record: " + std::string(key));
}

StatusOr<int64_t> TextReader::GetInt(std::string_view key) const {
  StatusOr<std::string_view> value = Get(key);
  if (!value.ok()) return value.status();
  int64_t parsed = 0;
  if (!ParseExactInt(value.value(), &parsed)) {
    return Status::InvalidArgument("not an integer: " +
                                   std::string(value.value()));
  }
  return parsed;
}

std::vector<std::string_view> TextReader::GetAll(std::string_view key) const {
  std::vector<std::string_view> values;
  for (const Entry& entry : entries_) {
    if (entry.key == key) values.push_back(entry.value);
  }
  return values;
}

StatusOr<std::vector<std::string_view>> TextReader::GetCounted(
    std::string_view count_key, std::string_view key) const {
  StatusOr<int64_t> count = GetInt(count_key);
  if (!count.ok()) return count.status();
  std::vector<std::string_view> values = GetAll(key);
  if (static_cast<int64_t>(values.size()) != count.value()) {
    return Status::InvalidArgument(
        std::string(key) + " record count mismatch: " + std::string(count_key) +
        " says " + std::to_string(count.value()) + ", found " +
        std::to_string(values.size()));
  }
  return values;
}

bool TokenCursor::AtEnd() const {
  return std::all_of(rest_.begin(), rest_.end(), IsSpace);
}

std::string FormatExactDouble(double value) {
  char buffer[kMaxHexFloat];
  return std::string(buffer, WriteHexFloat(value, buffer));
}

bool ParseExactDouble(std::string_view token, double* value) {
  const char* first = token.data();
  const char* last = first + token.size();
  const bool negative = first != last && *first == '-';
  const char* digits = first + (negative ? 1 : 0);
  if (last - digits >= 2 && digits[0] == '0' && digits[1] == 'x') {
    uint64_t bits = 0;
    if (!ParseHexFloatBits(digits + 2, last, &bits)) return false;
    *value = std::bit_cast<double>(bits | uint64_t{negative} << 63);
    return true;
  }
  double parsed = 0.0;
  const auto [end, ec] = std::from_chars(first, last, parsed);
  if (ec != std::errc() || end != last) return false;
  *value = parsed;
  return true;
}

std::string_view NextToken(std::string_view* text) {
  const char* p = text->data();
  const char* last = p + text->size();
  while (p != last && IsSpace(*p)) ++p;
  const char* token = p;
  while (p != last && !IsSpace(*p)) ++p;
  *text = std::string_view(p, static_cast<size_t>(last - p));
  return std::string_view(token, static_cast<size_t>(p - token));
}

std::string_view NextLine(std::string_view* text) {
  const size_t end = text->find('\n');
  const std::string_view line = text->substr(0, end);
  text->remove_prefix(end == std::string_view::npos ? text->size() : end + 1);
  return line;
}

std::vector<std::string> SplitString(const std::string& text, char delimiter) {
  std::vector<std::string> pieces;
  std::string_view rest = text;
  while (true) {
    const size_t end = rest.find(delimiter);
    pieces.emplace_back(StripWhitespace(rest.substr(0, end)));
    if (end == std::string_view::npos) return pieces;
    rest.remove_prefix(end + 1);
  }
}

std::string_view StripWhitespace(std::string_view text) {
  while (!text.empty() && IsSpace(text.front())) text.remove_prefix(1);
  while (!text.empty() && IsSpace(text.back())) text.remove_suffix(1);
  return text;
}

}  // namespace autocts
