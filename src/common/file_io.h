// Durable small-file I/O for checkpoints and other crash-sensitive state:
// CRC32 integrity checksums, an atomic write-to-temp-then-rename protocol
// that keeps the previous generation as "<path>.prev" (so a crash at any
// instant leaves at least one loadable generation on disk), and the sealed
// text layer every crash-sensitive format is built on.
#ifndef AUTOCTS_COMMON_FILE_IO_H_
#define AUTOCTS_COMMON_FILE_IO_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/text_codec.h"

namespace autocts {

// CRC-32 (IEEE 802.3 polynomial, as used by zlib/gzip) of `size` bytes.
uint32_t Crc32(const char* data, size_t size);
uint32_t Crc32(const std::string& text);

// True if `path` exists (any file type).
bool FileExists(const std::string& path);

// Reads the whole file with one read sized by its length. NotFound when
// the file does not exist; any other failure to open or read it, a short
// read included, is Unavailable.
StatusOr<std::string> ReadFileToString(const std::string& path);

// Crash-safe replacement of `path` with `content`:
//   1. write + fsync "<path>.tmp"
//   2. if `path` exists and keep_previous, rename it to "<path>.prev"
//   3. rename "<path>.tmp" to `path`
// Renames are atomic on POSIX, so a reader (or a restart after a crash at
// any point of the sequence) sees either the old generation at `path`, the
// new one at `path`, or the old one at "<path>.prev" — never a torn file.
Status AtomicWriteFile(const std::string& path, const std::string& content,
                       bool keep_previous = true);

// ---------------------------------------------------------------------------
// Sealed text documents. The search checkpoint, the eval checkpoint and the
// model artifact are "key = value" documents (common/text_codec.h) that
// open with `format = <name>` and `version = <n>` records and end with
//   crc32 = <8 lowercase hex digits>\n
// over every preceding byte.
// ---------------------------------------------------------------------------

// Appends the crc32 trailer line to `payload`.
std::string SealText(std::string payload);

// Verifies the trailer in place and returns the payload before it: `text`
// itself, cut short, so no byte is copied. Strict: the trailer is the last
// line, holds exactly eight lowercase hex digits and ends with a newline,
// so losing even the final byte is a truncation. Every failure is
// InvalidArgument.
StatusOr<std::string> UnsealText(std::string text);

// InvalidArgument unless the `format` and `version` records match.
Status CheckFormatHeader(const TextReader& reader, const std::string& format,
                         int64_t version);

// UnsealText, then parse the payload and check its header.
StatusOr<TextReader> OpenSealedText(std::string text,
                                    const std::string& format,
                                    int64_t version);

// A decoder of a whole file's text. It takes the text by value, so a file
// read moves its buffer into the decoder's TextReader.
template <typename T>
using TextDecoder = std::function<StatusOr<T>(std::string)>;

// Reads `path` and decodes it; a decode error names the path.
template <typename T>
StatusOr<T> LoadFile(const std::string& path, const TextDecoder<T>& decode) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  StatusOr<T> decoded = decode(std::move(text).value());
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  path + ": " + decoded.status().message());
  }
  return decoded;
}

// LoadFile(path), falling back to "<path>.prev" when the newest generation
// is missing or `decode` rejects it. `decode` may check more than the
// format (the searcher also refuses numerically unhealthy state), so the
// fallback serves every reason a generation is unusable. `used_prev`
// (optional) reports which generation loaded.
template <typename T>
StatusOr<T> LoadFileOrPrev(const std::string& path,
                           const TextDecoder<T>& decode, bool* used_prev) {
  if (used_prev != nullptr) *used_prev = false;
  StatusOr<T> primary = LoadFile<T>(path, decode);
  if (primary.ok() || !FileExists(path + ".prev")) return primary;
  StatusOr<T> previous = LoadFile<T>(path + ".prev", decode);
  if (!previous.ok()) {
    return Status(primary.status().code(),
                  primary.status().message() +
                      "; fallback also failed: " + previous.status().message());
  }
  if (used_prev != nullptr) *used_prev = true;
  return previous;
}

}  // namespace autocts

#endif  // AUTOCTS_COMMON_FILE_IO_H_
