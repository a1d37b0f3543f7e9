#include "common/metrics_registry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/file_io.h"
#include "common/macros.h"
#include "common/text_codec.h"

namespace autocts {
namespace obs {

namespace {

bool IsToken(const std::string& text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',') {
      return false;
    }
  }
  return true;
}

// Shortest decimal representation that parses back to the same double.
// Deterministic, so equal runs produce byte-equal CSV/JSONL sinks.
std::string FormatShortestDouble(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    if (ParseExactDouble(buf, &parsed) && parsed == value) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string FormatInt(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return buf;
}

}  // namespace

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    AUTOCTS_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram '" << name_ << "' bounds must be strictly increasing";
  }
  bucket_counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t bucket = bounds_.size();  // +inf bucket; also catches NaN
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  bucket_counts_[bucket] += 1;
  count_ += 1;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

const std::string& MetricsRegistry::Entry::name() const {
  switch (kind) {
    case Kind::kCounter:
      return counter->name();
    case Kind::kGauge:
      return gauge->name();
    case Kind::kHistogram:
      return histogram->name();
  }
  AUTOCTS_CHECK(false) << "unreachable";
  return counter->name();
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (Entry& entry : entries_) {
    if (entry.name() == name) return &entry;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  AUTOCTS_CHECK(IsToken(name)) << "bad instrument name '" << name << "'";
  if (Entry* entry = Find(name)) {
    AUTOCTS_CHECK(entry->kind == Entry::Kind::kCounter)
        << "'" << name << "' already registered as a different kind";
    return entry->counter.get();
  }
  Entry entry;
  entry.kind = Entry::Kind::kCounter;
  entry.counter = std::make_unique<Counter>(name);
  entries_.push_back(std::move(entry));
  return entries_.back().counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  AUTOCTS_CHECK(IsToken(name)) << "bad instrument name '" << name << "'";
  if (Entry* entry = Find(name)) {
    AUTOCTS_CHECK(entry->kind == Entry::Kind::kGauge)
        << "'" << name << "' already registered as a different kind";
    return entry->gauge.get();
  }
  Entry entry;
  entry.kind = Entry::Kind::kGauge;
  entry.gauge = std::make_unique<Gauge>(name);
  entries_.push_back(std::move(entry));
  return entries_.back().gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  AUTOCTS_CHECK(IsToken(name)) << "bad instrument name '" << name << "'";
  if (Entry* entry = Find(name)) {
    AUTOCTS_CHECK(entry->kind == Entry::Kind::kHistogram)
        << "'" << name << "' already registered as a different kind";
    return entry->histogram.get();
  }
  Entry entry;
  entry.kind = Entry::Kind::kHistogram;
  entry.histogram = std::make_unique<Histogram>(name, bounds);
  entries_.push_back(std::move(entry));
  return entries_.back().histogram.get();
}

void MetricsRegistry::AppendRow(const std::string& kind, int64_t epoch,
                                int64_t step) {
  AUTOCTS_CHECK(IsToken(kind)) << "bad row kind '" << kind << "'";
  Row row;
  row.kind = kind;
  row.epoch = epoch;
  row.step = step;
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        row.values.push_back(static_cast<double>(entry.counter->value()));
        break;
      case Entry::Kind::kGauge:
        row.values.push_back(entry.gauge->value());
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        row.values.push_back(static_cast<double>(h.count()));
        row.values.push_back(h.sum());
        row.values.push_back(h.min());
        row.values.push_back(h.max());
        for (int64_t c : h.bucket_counts()) {
          row.values.push_back(static_cast<double>(c));
        }
        break;
      }
    }
  }
  rows_.push_back(std::move(row));
}

std::vector<std::string> MetricsRegistry::ColumnNames() const {
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        names.push_back(entry.counter->name());
        break;
      case Entry::Kind::kGauge:
        names.push_back(entry.gauge->name());
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        names.push_back(h.name() + ".count");
        names.push_back(h.name() + ".sum");
        names.push_back(h.name() + ".min");
        names.push_back(h.name() + ".max");
        for (double bound : h.bounds()) {
          names.push_back(h.name() + ".le_" + FormatShortestDouble(bound));
        }
        names.push_back(h.name() + ".le_inf");
        break;
      }
    }
  }
  return names;
}

std::string MetricsRegistry::ToCsv() const {
  const std::vector<std::string> names = ColumnNames();
  // Column kinds, in header order (true = integer-valued).
  std::vector<bool> is_integer;
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        is_integer.push_back(true);
        break;
      case Entry::Kind::kGauge:
        is_integer.push_back(false);
        break;
      case Entry::Kind::kHistogram:
        is_integer.push_back(true);   // count
        is_integer.push_back(false);  // sum
        is_integer.push_back(false);  // min
        is_integer.push_back(false);  // max
        for (size_t i = 0; i < entry.histogram->bounds().size() + 1; ++i) {
          is_integer.push_back(true);  // bucket counts
        }
        break;
    }
  }
  std::string out = "kind,epoch,step";
  for (const std::string& name : names) {
    out += ',';
    out += name;
  }
  out += '\n';
  for (const Row& row : rows_) {
    out += row.kind;
    out += ',';
    out += FormatInt(row.epoch);
    out += ',';
    out += FormatInt(row.step);
    for (size_t i = 0; i < row.values.size() && i < names.size(); ++i) {
      out += ',';
      if (is_integer[i]) {
        out += FormatInt(static_cast<int64_t>(row.values[i]));
      } else {
        out += FormatShortestDouble(row.values[i]);
      }
    }
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ToJsonLines() const {
  const std::vector<std::string> names = ColumnNames();
  std::string out;
  for (const Row& row : rows_) {
    out += "{\"kind\":\"";
    out += row.kind;  // row kinds are whitespace/comma-free tokens
    out += "\",\"epoch\":";
    out += FormatInt(row.epoch);
    out += ",\"step\":";
    out += FormatInt(row.step);
    out += ",\"values\":{";
    for (size_t i = 0; i < row.values.size() && i < names.size(); ++i) {
      if (i > 0) out += ',';
      out += '"';
      out += names[i];
      out += "\":";
      out += std::isfinite(row.values[i])
                 ? FormatShortestDouble(row.values[i])
                 : "null";
    }
    out += "}}\n";
  }
  return out;
}

Status MetricsRegistry::WriteSinks(const std::string& base_path) const {
  Status status =
      AtomicWriteFile(base_path + ".csv", ToCsv(), /*keep_previous=*/false);
  if (!status.ok()) return status;
  return AtomicWriteFile(base_path + ".jsonl", ToJsonLines(),
                         /*keep_previous=*/false);
}

std::string MetricsRegistry::EncodeState() const {
  std::string out = "obsv 1";
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        out += "\ncounter " + entry.counter->name() + ' ' +
               FormatInt(entry.counter->value());
        break;
      case Entry::Kind::kGauge:
        out += "\ngauge " + entry.gauge->name() + ' ' +
               FormatExactDouble(entry.gauge->value());
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += "\nhist " + h.name() + ' ' +
               FormatInt(static_cast<int64_t>(h.bounds().size()));
        for (double bound : h.bounds()) {
          out += ' ' + FormatExactDouble(bound);
        }
        out += ' ' + FormatInt(h.count()) + ' ' + FormatExactDouble(h.sum()) +
               ' ' + FormatExactDouble(h.min()) + ' ' +
               FormatExactDouble(h.max());
        for (int64_t c : h.bucket_counts()) {
          out += ' ' + FormatInt(c);
        }
        break;
      }
    }
  }
  for (const Row& row : rows_) {
    out += "\nrow " + row.kind + ' ' + FormatInt(row.epoch) + ' ' +
           FormatInt(row.step) + ' ' +
           FormatInt(static_cast<int64_t>(row.values.size()));
    for (double value : row.values) {
      out += ' ' + FormatExactDouble(value);
    }
  }
  return out;
}

Status MetricsRegistry::DecodeState(std::string_view text) {
  // The kinds registered before the call: a decoded instrument may not
  // change one, or the caller's next Get of that name would abort.
  std::vector<std::pair<std::string, Entry::Kind>> registered;
  for (const Entry& entry : entries_) {
    registered.emplace_back(entry.name(), entry.kind);
  }
  Reset();
  const auto fail = [this](const char* why, std::string_view line) {
    Reset();
    return Status::InvalidArgument(why + std::string(line));
  };
  constexpr char kMalformed[] = "malformed metrics state line: ";
  constexpr char kTaken[] =
      "metrics state names an instrument twice or as another kind than "
      "its registration: ";
  // True unless `name` was decoded already or registered as another kind.
  const auto name_free = [&](const std::string& name, Entry::Kind kind) {
    if (Find(name) != nullptr) return false;
    for (const auto& [registered_name, registered_kind] : registered) {
      if (registered_name == name && registered_kind != kind) return false;
    }
    return true;
  };
  bool saw_header = false;
  for (std::string_view rest = text; !rest.empty();) {
    const std::string_view line = NextLine(&rest);
    if (line.empty()) continue;
    TokenCursor in(line);
    const std::string_view tag = in.Word();
    if (!saw_header) {
      int64_t version = 0;
      if (tag != "obsv" || !in.Int(&version) || version != 1) {
        return fail("bad metrics state header: ", line);
      }
      saw_header = true;
      continue;
    }
    if (tag == "counter") {
      const std::string name(in.Word());
      int64_t value = 0;
      if (!IsToken(name) || !in.Int(&value)) return fail(kMalformed, line);
      if (!name_free(name, Entry::Kind::kCounter)) return fail(kTaken, line);
      GetCounter(name)->Set(value);
    } else if (tag == "gauge") {
      const std::string name(in.Word());
      double value = 0.0;
      if (!IsToken(name) || !in.Double(&value)) return fail(kMalformed, line);
      if (!name_free(name, Entry::Kind::kGauge)) return fail(kTaken, line);
      GetGauge(name)->Set(value);
    } else if (tag == "hist") {
      const std::string name(in.Word());
      int64_t num_bounds = 0;
      if (!IsToken(name) || !in.Int(&num_bounds) ||
          !CountFits(num_bounds, in.bytes_left())) {
        return fail(kMalformed, line);
      }
      if (!name_free(name, Entry::Kind::kHistogram)) {
        return fail(kTaken, line);
      }
      std::vector<double> bounds(static_cast<size_t>(num_bounds));
      for (size_t i = 0; i < bounds.size(); ++i) {
        // The Histogram constructor's rule, NaN included.
        if (!in.Double(&bounds[i]) || std::isnan(bounds[i]) ||
            (i > 0 && !(bounds[i - 1] < bounds[i]))) {
          return fail(kMalformed, line);
        }
      }
      Histogram* h = GetHistogram(name, bounds);
      if (!in.Int(&h->count_) || !in.Double(&h->sum_) ||
          !in.Double(&h->min_) || !in.Double(&h->max_)) {
        return fail(kMalformed, line);
      }
      for (int64_t& c : h->bucket_counts_) {
        if (!in.Int(&c)) return fail(kMalformed, line);
      }
    } else if (tag == "row") {
      Row row;
      int64_t num_values = 0;
      row.kind = in.Word();
      if (!IsToken(row.kind) || !in.Int(&row.epoch) || !in.Int(&row.step) ||
          !in.Int(&num_values) || !CountFits(num_values, in.bytes_left())) {
        return fail(kMalformed, line);
      }
      row.values.resize(static_cast<size_t>(num_values));
      for (double& value : row.values) {
        if (!in.Double(&value)) return fail(kMalformed, line);
      }
      rows_.push_back(std::move(row));
    } else {
      return fail(kMalformed, line);
    }
    if (!in.AtEnd()) return fail(kMalformed, line);
  }
  if (!saw_header && !text.empty()) {
    return fail("metrics state missing header", "");
  }
  return Status::Ok();
}

void MetricsRegistry::Reset() {
  entries_.clear();
  rows_.clear();
}

std::string MetricsRegistry::StripWallColumns(const std::string& csv) {
  std::istringstream lines(csv);
  std::string header;
  if (!std::getline(lines, header)) return csv;
  const std::vector<std::string> names = SplitString(header, ',');
  std::vector<bool> keep(names.size(), true);
  for (size_t i = 0; i < names.size(); ++i) {
    keep[i] = names[i].rfind("wall/", 0) != 0;
  }
  std::string out;
  std::string line = header;
  do {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitString(line, ',');
    bool first = true;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i < keep.size() && !keep[i]) continue;
      if (!first) out += ',';
      first = false;
      out += fields[i];
    }
    out += '\n';
  } while (std::getline(lines, line));
  return out;
}

}  // namespace obs
}  // namespace autocts
