#include "data/csv.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/text_codec.h"

namespace autocts::data {

Status SaveMatrixCsv(const std::string& path, const Tensor& matrix) {
  if (matrix.ndim() != 2) {
    return Status::InvalidArgument("SaveMatrixCsv expects a 2-D tensor");
  }
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out.precision(12);
  const int64_t rows = matrix.dim(0);
  const int64_t cols = matrix.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (c > 0) out << ",";
      out << matrix.data()[r * cols + c];
    }
    out << "\n";
  }
  return out ? Status::Ok() : Status::Internal("write failed: " + path);
}

StatusOr<Tensor> LoadMatrixCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::vector<double> values;
  int64_t cols = -1;
  int64_t rows = 0;
  int64_t line_number = 0;  // 1-based physical line, blank lines included
  std::string line;
  // Every parse error names the file and the 1-based line (and column) it
  // came from, so a malformed export is locatable without bisecting.
  while (std::getline(in, line)) {
    ++line_number;
    if (StripWhitespace(line).empty()) continue;
    const std::vector<std::string> cells = SplitString(line, ',');
    if (cols == -1) {
      cols = static_cast<int64_t>(cells.size());
    } else if (cols != static_cast<int64_t>(cells.size())) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": ragged row: expected " +
          std::to_string(cols) + " columns, got " +
          std::to_string(cells.size()));
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      const std::string cell(StripWhitespace(cells[c]));
      char* end = nullptr;
      const double value =
          cell.empty() ? 0.0 : std::strtod(cell.c_str(), &end);
      // Reject empty cells, non-numeric cells, and trailing garbage after
      // a valid prefix ("1.5abc").
      if (cell.empty() || end == cell.c_str() ||
          *end != '\0') {
        return Status::InvalidArgument(
            path + ":" + std::to_string(line_number) + ": column " +
            std::to_string(c + 1) + ": not a number: \"" + cells[c] + "\"");
      }
      values.push_back(value);
    }
    ++rows;
  }
  if (in.bad()) {
    return Status::Unavailable("read failed on " + path + ": " +
                               std::strerror(errno));
  }
  if (rows == 0) {
    return Status::InvalidArgument(path + ": empty CSV (no data rows)");
  }
  return Tensor::FromVector({rows, cols}, std::move(values));
}

}  // namespace autocts::data
