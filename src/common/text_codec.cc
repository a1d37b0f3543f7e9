#include "common/text_codec.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace autocts {
namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";

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
  char buffer[64];
  const int size = std::snprintf(buffer, sizeof(buffer), "%a", value);
  text_.append(buffer, static_cast<size_t>(size));
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
  return rest_.find_first_not_of(kSpace) == std::string_view::npos;
}

std::string FormatExactDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

bool ParseExactDouble(std::string_view token, double* value) {
  const char* first = token.data();
  const char* last = first + token.size();
  const char* digits = first + (first != last && *first == '-' ? 1 : 0);
  double parsed = 0.0;
  std::from_chars_result result{};
  if (last - digits > 2 && digits[0] == '0' && digits[1] == 'x') {
    // from_chars takes its own '-' and "inf"/"nan" here; only a digit or
    // the point may follow the prefix.
    const char lead = digits[2];
    if (!std::isxdigit(static_cast<unsigned char>(lead)) && lead != '.') {
      return false;
    }
    result = std::from_chars(digits + 2, last, parsed, std::chars_format::hex);
    if (digits != first) parsed = -parsed;
  } else {
    result = std::from_chars(first, last, parsed);
  }
  if (result.ec != std::errc() || result.ptr != last) return false;
  *value = parsed;
  return true;
}

std::string_view NextToken(std::string_view* text) {
  const size_t begin = text->find_first_not_of(kSpace);
  if (begin == std::string_view::npos) {
    *text = {};
    return {};
  }
  const size_t end = std::min(text->find_first_of(kSpace, begin), text->size());
  const std::string_view token = text->substr(begin, end - begin);
  text->remove_prefix(end);
  return token;
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
  const size_t begin = text.find_first_not_of(kSpace);
  if (begin == std::string_view::npos) return {};
  return text.substr(begin, text.find_last_not_of(kSpace) - begin + 1);
}

}  // namespace autocts
