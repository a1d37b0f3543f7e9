#include "common/text_codec.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace autocts {

void TextWriter::Add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, value);
}

void TextWriter::AddInt(const std::string& key, int64_t value) {
  Add(key, std::to_string(value));
}

std::string TextWriter::ToString() const {
  std::ostringstream stream;
  for (const auto& [key, value] : entries_) {
    stream << key << " = " << value << "\n";
  }
  return stream.str();
}

StatusOr<TextReader> TextReader::Parse(const std::string& text) {
  TextReader reader;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::string stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " has no '=': " + stripped);
    }
    std::string key = StripWhitespace(stripped.substr(0, eq));
    std::string value = StripWhitespace(stripped.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     " has empty key");
    }
    reader.entries_.emplace_back(std::move(key), std::move(value));
  }
  return reader;
}

StatusOr<std::string> TextReader::Get(const std::string& key) const {
  for (const auto& [entry_key, value] : entries_) {
    if (entry_key == key) return value;
  }
  return Status::NotFound("key not found: " + key);
}

StatusOr<int64_t> TextReader::GetInt(const std::string& key) const {
  StatusOr<std::string> value = Get(key);
  if (!value.ok()) return value.status();
  int64_t parsed = 0;
  if (!ParseExactInt(value.value(), &parsed)) {
    return Status::InvalidArgument("not an integer: " + value.value());
  }
  return parsed;
}

std::vector<std::string> TextReader::GetAll(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [entry_key, value] : entries_) {
    if (entry_key == key) values.push_back(value);
  }
  return values;
}

StatusOr<std::vector<std::string>> TextReader::GetCounted(
    const std::string& count_key, const std::string& key) const {
  StatusOr<int64_t> count = GetInt(count_key);
  if (!count.ok()) return count.status();
  std::vector<std::string> values = GetAll(key);
  if (static_cast<int64_t>(values.size()) != count.value()) {
    return Status::InvalidArgument(
        key + " record count mismatch: " + count_key + " says " +
        std::to_string(count.value()) + ", found " +
        std::to_string(values.size()));
  }
  return values;
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

bool ParseExactInt(std::string_view token, int64_t* value) {
  int64_t parsed = 0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, parsed);
  if (ec != std::errc() || end != last) return false;
  *value = parsed;
  return true;
}

std::string_view NextToken(std::string_view* text) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
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

std::vector<std::string> SplitString(const std::string& text, char delimiter) {
  std::vector<std::string> pieces;
  std::string current;
  for (char c : text) {
    if (c == delimiter) {
      pieces.push_back(StripWhitespace(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  pieces.push_back(StripWhitespace(current));
  return pieces;
}

std::string StripWhitespace(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

}  // namespace autocts
