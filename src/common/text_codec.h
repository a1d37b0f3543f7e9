// A tiny line-oriented key/value text format used to (de)serialize small
// structured records such as genotypes, without a third-party dependency.
//
// Format: one "key = value" pair per line; values are free-form strings
// (no embedded newlines). Keys may repeat; lookup helpers return either the
// single value or all values in file order. Lines starting with '#' are
// comments.
#ifndef AUTOCTS_COMMON_TEXT_CODEC_H_
#define AUTOCTS_COMMON_TEXT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace autocts {

// Serializes key/value pairs to the text format.
class TextWriter {
 public:
  void Add(const std::string& key, const std::string& value);
  void AddInt(const std::string& key, int64_t value);
  // Returns the accumulated document.
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Parses the text format produced by TextWriter.
class TextReader {
 public:
  // Parses `text`; returns InvalidArgument on a malformed line.
  static StatusOr<TextReader> Parse(const std::string& text);

  // Returns the value of the first entry with `key`, or NotFound.
  StatusOr<std::string> Get(const std::string& key) const;
  StatusOr<int64_t> GetInt(const std::string& key) const;
  // All values recorded under `key`, in file order.
  std::vector<std::string> GetAll(const std::string& key) const;
  // GetAll(key), which must hold exactly the integer under `count_key`
  // values; a missing count is an error like Get's, a different number of
  // records InvalidArgument.
  StatusOr<std::vector<std::string>> GetCounted(const std::string& count_key,
                                                const std::string& key) const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Formats `value` as a C99 hexadecimal float ("%a", e.g. "0x1.999999999999ap-4"
// for 0.1). Unlike fixed-precision decimal output, the hex form is an exact
// image of the bits, so every finite double — including denormals — parses
// back bit-identically via ParseExactDouble.
std::string FormatExactDouble(double value);

// Parses one floating-point token with std::from_chars: hexadecimal after an
// optional '-' and "0x" (FormatExactDouble's form), decimal, "inf" or "nan"
// otherwise (the 17-digit decimal form of older files). Returns false
// unless the entire token was consumed and the value is in range; a '+',
// a second sign ("0x-1p0") or "0X" is refused.
bool ParseExactDouble(std::string_view token, double* value);

// Parses a base-10 integer token (an optional '-', then digits). Returns
// false unless the entire token was consumed and the value fits in int64_t.
bool ParseExactInt(std::string_view token, int64_t* value);

// Removes the first whitespace-separated token from `*text` and returns it
// (empty once only whitespace is left). Whitespace is what istream
// extraction skips: space, \t, \n, \v, \f and \r.
std::string_view NextToken(std::string_view* text);

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
std::string StripWhitespace(const std::string& text);

}  // namespace autocts

#endif  // AUTOCTS_COMMON_TEXT_CODEC_H_
