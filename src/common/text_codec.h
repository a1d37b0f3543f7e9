// The one text codec under every file format of the repository: genotypes,
// candidate sets, state dicts, search and eval checkpoints, model artifacts
// and the metrics state a checkpoint embeds.
//
// Format: one "key = value" record per line; values are free-form strings
// (no embedded newlines). Keys may repeat; lookup helpers return either the
// single value or all values in file order. Lines starting with '#' are
// comments.
//
// TextWriter appends records straight into one string. TextReader owns the
// text it parses and keeps every record as a view into it. TokenCursor reads
// the whitespace-separated tokens of one record in place; it is the one
// definition of a valid integer, double, word and end of record, and every
// record parser reads through it.
#ifndef AUTOCTS_COMMON_TEXT_CODEC_H_
#define AUTOCTS_COMMON_TEXT_CODEC_H_

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace autocts {

// Formats `value` as a C99 hexadecimal float, spelled as glibc's "%a"
// spells it (e.g. "0x1.999999999999ap-4" for 0.1, "0x0.0000000000001p-1022"
// for the smallest denormal) but built from the bits, so the bytes do not
// depend on the C library. Unlike fixed-precision decimal output, the hex
// form is an exact image of the bits, so every finite double — including
// denormals — parses back bit-identically via ParseExactDouble.
std::string FormatExactDouble(double value);

// Parses one floating-point token. After an optional '-' and "0x" it must
// be hexadecimal exactly as FormatExactDouble writes it (lowercase digits,
// no trailing fraction zero, a signed exponent without leading zeros, a
// denormal as "0x0.<digits>p-1022"), and its bits are built directly from
// the digits; any other hex spelling is refused. Every other token is read
// with std::from_chars: decimal, "inf" or "nan" (the 17-digit decimal form
// of older files). Returns false unless the entire token was consumed and
// the value is in range; a '+' is refused.
bool ParseExactDouble(std::string_view token, double* value);

// Parses a base-10 integer token: digits after an optional '-' (a signed
// T only). Returns false unless the entire token was consumed and the
// value fits in T; a '+' is refused.
template <typename T>
bool ParseExactInt(std::string_view token, T* value) {
  T parsed = 0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, parsed);
  if (ec != std::errc() || end != last) return false;
  *value = parsed;
  return true;
}

// Removes the first whitespace-separated token from `*text` and returns it
// (empty once only whitespace is left).
std::string_view NextToken(std::string_view* text);

// Serializes records to the text format.
class TextWriter {
 public:
  // Appends "key = value\n".
  void Add(std::string_view key, std::string_view value);
  void AddInt(std::string_view key, int64_t value);

  // Token records: Record(key) appends "key = ", the tokens follow
  // separated by single spaces, and End() appends the newline, e.g.
  //   writer.Record("cursor").Int(epoch).Int(step).End();
  TextWriter& Record(std::string_view key);
  // Any integer type, in base 10.
  template <typename T>
  TextWriter& Int(T value) {
    Separate();
    char buffer[24];
    text_.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
    return *this;
  }
  // FormatExactDouble's form.
  TextWriter& Double(double value);
  TextWriter& Word(std::string_view word);
  void End() { text_ += '\n'; }

  // Moves the document out; the writer is left empty.
  std::string Release() { return std::move(text_); }

 private:
  // Starts a token: a space unless it is the record's first.
  void Separate();

  std::string text_;
  bool first_token_ = false;
};

// Parses the text format produced by TextWriter.
class TextReader {
 public:
  struct Entry {
    std::string_view key;
    std::string_view value;
  };

  // Takes ownership of `text` and indexes its records in place; returns
  // InvalidArgument on a malformed line.
  static StatusOr<TextReader> Parse(std::string text);

  // Every record, in file order.
  const std::vector<Entry>& entries() const { return entries_; }
  // The records [first, last) as a reader over the same text.
  TextReader Slice(size_t first, size_t last) const;

  // Returns the value of the first entry with `key`. A missing record is
  // InvalidArgument: a document without a record it must hold is malformed.
  StatusOr<std::string_view> Get(std::string_view key) const;
  StatusOr<int64_t> GetInt(std::string_view key) const;
  // All values recorded under `key`, in file order.
  std::vector<std::string_view> GetAll(std::string_view key) const;
  // GetAll(key), which must hold exactly the integer under `count_key`
  // values; a missing count is an error like Get's, a different number of
  // records InvalidArgument.
  StatusOr<std::vector<std::string_view>> GetCounted(
      std::string_view count_key, std::string_view key) const;

 private:
  // On the heap and shared with slices, so the views stay valid when the
  // reader moves (a moved short string would move its inline bytes).
  std::shared_ptr<const std::string> text_;
  std::vector<Entry> entries_;
};

// Reads the whitespace-separated tokens of one record in place. Whitespace
// is what istream extraction skips: space, \t, \n, \v, \f and \r. Int
// and Double take the next token, which must be a number of their kind
// entire (ParseExactInt for the integer type given, so an unsigned word
// refuses a '-'; ParseExactDouble); a '+' sign, a glued suffix or an
// out-of-range value fails.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view record) : rest_(record) {}

  template <typename T>
  bool Int(T* value) {
    return ParseExactInt(NextToken(&rest_), value);
  }
  bool Double(double* value) {
    return ParseExactDouble(NextToken(&rest_), value);
  }
  // The next token; empty once only whitespace is left.
  std::string_view Word() { return NextToken(&rest_); }

  // The unread rest of the record (tensor tails, free text) and its size
  // (for CountFits).
  std::string_view rest() const { return rest_; }
  int64_t bytes_left() const { return static_cast<int64_t>(rest_.size()); }
  // True when only whitespace is left.
  bool AtEnd() const;

 private:
  std::string_view rest_;
};

// Removes the first line from `*text` and returns it without its '\n'. A
// final newline ends the last line and opens no empty one.
std::string_view NextLine(std::string_view* text);

// The count rule of every count-prefixed text field (tensor shapes, index
// orders, value lists): `count` whitespace-separated items need at least
// 2 * count - 1 bytes, so a count the `bytes_left` bytes of its record
// cannot hold is refused before anything sized by it is allocated. Items of
// several tokens pass `tokens_per_item`. Overflow-safe for any count.
inline bool CountFits(int64_t count, int64_t bytes_left,
                      int64_t tokens_per_item = 1) {
  return count >= 0 && count <= (bytes_left + 1) / 2 / tokens_per_item;
}

// Splits `text` on `delimiter`, trimming surrounding whitespace per piece.
std::vector<std::string> SplitString(const std::string& text, char delimiter);

// Removes leading and trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

}  // namespace autocts

#endif  // AUTOCTS_COMMON_TEXT_CODEC_H_
