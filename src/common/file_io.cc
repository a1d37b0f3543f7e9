#include "common/file_io.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/logging.h"

namespace autocts {
namespace {

// The trailer key of every sealed document (see SealText).
constexpr char kCrcKey[] = "crc32 = ";
constexpr size_t kCrcKeySize = sizeof(kCrcKey) - 1;

// Slicing-by-8 CRC-32 tables for the reflected IEEE polynomial
// (0xEDB88320). kCrcTables[0] is the classic byte table; kCrcTables[k][b]
// is the CRC register after byte b and then k zero bytes, so eight
// independent lookups fold eight bytes into the register at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// The four bytes at `p` as a little-endian word, on any host.
uint32_t LoadLittleEndian32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

std::string ErrnoText(int error_number, bool injected) {
  std::string text = std::strerror(error_number);
  if (injected) text += " (injected)";
  return text;
}

// Best-effort removal of a temp file on a failure path. Consumes the
// "unlink" fault seam so tests can exercise cleanup failing too; a leftover
// ".tmp" is harmless (never read, overwritten by the next attempt) so this
// only warns.
void BestEffortRemove(const std::string& path) {
  if (auto fault = fault::Consume("unlink")) {
    AUTOCTS_LOG(WARNING) << "cannot remove temp file " << path << ": "
                         << ErrnoText(fault->error_number, true);
    return;
  }
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    AUTOCTS_LOG(WARNING) << "cannot remove temp file " << path << ": "
                         << std::strerror(errno);
  }
}

}  // namespace

uint32_t Crc32(const char* data, size_t size) {
  const CrcTables& t = kCrcTables;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t low = crc ^ LoadLittleEndian32(bytes);
    crc = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
          t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^ t[3][bytes[4]] ^
          t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& text) {
  return Crc32(text.data(), text.size());
}

bool FileExists(const std::string& path) {
  struct stat buffer;
  return ::stat(path.c_str(), &buffer) == 0;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  if (auto fault = fault::Consume("open")) {
    return Status::Unavailable("cannot open: " + path + ": " +
                               ErrnoText(fault->error_number, true));
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    // NotFound only for a genuinely missing file; everything else (EACCES,
    // EMFILE, ...) is a transient environment problem, not absence.
    if (!FileExists(path)) {
      return Status::NotFound("cannot open: " + path + ": " +
                              std::strerror(ENOENT));
    }
    return Status::Unavailable("cannot open: " + path + ": " +
                               std::strerror(errno));
  }
  if (auto fault = fault::Consume("read")) {
    return Status::Unavailable("read failed: " + path + ": " +
                               ErrnoText(fault->error_number, true));
  }
  // One read sized by the file's length.
  const std::streamoff size = in.tellg();
  std::string content(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  in.seekg(0);
  in.read(content.data(), static_cast<std::streamsize>(content.size()));
  if (size < 0 || in.gcount() != size) {
    return Status::Unavailable("short read: " + path + " (" +
                               std::to_string(in.gcount()) + " of " +
                               std::to_string(size) + " bytes)");
  }
  return content;
}

Status AtomicWriteFile(const std::string& path, const std::string& content,
                       bool keep_previous) {
  const std::string tmp_path = path + ".tmp";

  // 1. Open the temp file.
  std::FILE* file = nullptr;
  if (auto fault = fault::Consume("open")) {
    return Status::Unavailable("cannot open for writing: " + tmp_path + ": " +
                               ErrnoText(fault->error_number, true));
  }
  file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot open for writing: " + tmp_path + ": " +
                               std::strerror(errno));
  }

  // 2. Write the content. An injected SHORT write persists a truncated
  // prefix (flushed, so it is really on disk) before failing — the shape a
  // real ENOSPC mid-write leaves behind.
  if (auto fault = fault::Consume("write")) {
    if (fault->short_write) {
      const size_t prefix = content.size() / 2;
      if (prefix > 0) std::fwrite(content.data(), 1, prefix, file);
      std::fflush(file);
    }
    std::fclose(file);
    BestEffortRemove(tmp_path);
    return Status::Unavailable(
        std::string(fault->short_write ? "short write: " : "write failed: ") +
        tmp_path + ": " + ErrnoText(fault->error_number, true));
  }
  const size_t written =
      content.empty() ? 0
                      : std::fwrite(content.data(), 1, content.size(), file);
  if (written != content.size()) {
    const int error_number = errno;
    std::fclose(file);
    BestEffortRemove(tmp_path);
    return Status::Unavailable("write failed: " + tmp_path + " (" +
                               std::to_string(written) + "/" +
                               std::to_string(content.size()) + " bytes): " +
                               std::strerror(error_number));
  }
  if (std::fflush(file) != 0) {
    const int error_number = errno;
    std::fclose(file);
    BestEffortRemove(tmp_path);
    return Status::Unavailable("flush failed: " + tmp_path + ": " +
                               std::strerror(error_number));
  }
  // fsync before rename: otherwise a power loss can surface the new name
  // with stale (empty) contents.
  if (::fsync(fileno(file)) != 0) {
    const int error_number = errno;
    std::fclose(file);
    BestEffortRemove(tmp_path);
    return Status::Unavailable("fsync failed: " + tmp_path + ": " +
                               std::strerror(error_number));
  }

  // 3. Close. A failing close can mean buffered data never landed, so it is
  // a write failure, not a formality.
  bool close_failed = false;
  int close_errno = 0;
  bool close_injected = false;
  if (auto fault = fault::Consume("close")) {
    close_failed = true;
    close_errno = fault->error_number;
    close_injected = true;
    std::fclose(file);
  } else if (std::fclose(file) != 0) {
    close_failed = true;
    close_errno = errno;
  }
  if (close_failed) {
    BestEffortRemove(tmp_path);
    return Status::Unavailable("close failed: " + tmp_path + ": " +
                               ErrnoText(close_errno, close_injected));
  }

  // 4. Rotate the current generation to ".prev".
  const std::string prev_path = path + ".prev";
  const bool rotated = keep_previous && FileExists(path);
  if (rotated) {
    bool rename_failed = false;
    int rename_errno = 0;
    bool injected = false;
    if (auto fault = fault::Consume("rename")) {
      rename_failed = true;
      rename_errno = fault->error_number;
      injected = true;
    } else if (std::rename(path.c_str(), prev_path.c_str()) != 0) {
      rename_failed = true;
      rename_errno = errno;
    }
    if (rename_failed) {
      BestEffortRemove(tmp_path);
      return Status::Unavailable("cannot rotate previous generation: " + path +
                                 " -> " + prev_path + ": " +
                                 ErrnoText(rename_errno, injected));
    }
  }

  // 5. Publish. If this rename fails after a successful rotate, `path`
  // would vanish (the old generation sits at ".prev"), so roll the rotate
  // back best-effort before reporting — readers keep finding `path` either
  // way, and a retry redoes the whole sequence from a clean state.
  {
    bool rename_failed = false;
    int rename_errno = 0;
    bool injected = false;
    if (auto fault = fault::Consume("rename")) {
      rename_failed = true;
      rename_errno = fault->error_number;
      injected = true;
    } else if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
      rename_failed = true;
      rename_errno = errno;
    }
    if (rename_failed) {
      if (rotated && std::rename(prev_path.c_str(), path.c_str()) != 0) {
        AUTOCTS_LOG(WARNING) << "cannot roll back rotation " << prev_path
                             << " -> " << path << ": " << std::strerror(errno);
      }
      BestEffortRemove(tmp_path);
      return Status::Unavailable("cannot publish: " + tmp_path + " -> " +
                                 path + ": " +
                                 ErrnoText(rename_errno, injected));
    }
  }
  return Status::Ok();
}

std::string SealText(std::string payload) {
  char trailer[24];
  std::snprintf(trailer, sizeof(trailer), "%s%08x\n", kCrcKey,
                Crc32(payload));
  payload += trailer;
  return payload;
}

StatusOr<std::string> UnsealText(std::string text) {
  const size_t marker = text.rfind(kCrcKey);
  if (marker == std::string::npos ||
      (marker != 0 && text[marker - 1] != '\n')) {
    return Status::InvalidArgument("missing crc32 trailer");
  }
  const std::string_view trailer =
      std::string_view(text).substr(marker + kCrcKeySize);
  if (trailer.size() != 9 || trailer[8] != '\n' ||
      trailer.find_first_not_of("0123456789abcdef") != 8) {
    return Status::InvalidArgument("malformed or truncated crc32 trailer");
  }
  const uint32_t expected =
      static_cast<uint32_t>(std::strtoul(trailer.data(), nullptr, 16));
  const uint32_t actual = Crc32(text.data(), marker);
  if (expected != actual) {
    char message[64];
    std::snprintf(message, sizeof(message),
                  "crc32 mismatch: expected %08x, computed %08x", expected,
                  actual);
    return Status::InvalidArgument(message);
  }
  text.resize(marker);
  return text;
}

Status CheckFormatHeader(const TextReader& reader, const std::string& format,
                         int64_t version) {
  const StatusOr<std::string_view> found = reader.Get("format");
  if (!found.ok() || found.value() != format) {
    return Status::InvalidArgument(
        "not a " + format + " document: format = " +
        std::string(found.ok() ? found.value() : "<missing>"));
  }
  const StatusOr<int64_t> found_version = reader.GetInt("version");
  if (!found_version.ok()) {
    return Status::InvalidArgument("bad " + format + " version record");
  }
  if (found_version.value() != version) {
    return Status::InvalidArgument(
        "unsupported " + format + " version " +
        std::to_string(found_version.value()) + " (expected " +
        std::to_string(version) + ")");
  }
  return Status::Ok();
}

StatusOr<TextReader> OpenSealedText(std::string text,
                                    const std::string& format,
                                    int64_t version) {
  StatusOr<std::string> payload = UnsealText(std::move(text));
  if (!payload.ok()) return payload.status();
  StatusOr<TextReader> reader = TextReader::Parse(std::move(payload).value());
  if (!reader.ok()) return reader.status();
  const Status header = CheckFormatHeader(reader.value(), format, version);
  if (!header.ok()) return header;
  return reader;
}

}  // namespace autocts
