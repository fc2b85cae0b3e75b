#include "util/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/file_util.h"
#include "util/string_util.h"

namespace doppler {

ParsedCell ParseCell(std::string_view text) {
  const std::string_view number = Trim(text);
  double value = 0.0;
  const std::from_chars_result fast =
      std::from_chars(number.data(), number.data() + number.size(), value);
  if (fast.ec != std::errc() || fast.ptr != number.data() + number.size() ||
      !std::isfinite(value)) {
    // Whatever the fast path does not read whole and finite (a '+', hex,
    // inf/nan with their sign and payload, out-of-range exponents, a NUL)
    // is read by strtod itself, on the cell as a C string.
    const std::string copy(text);
    char* end = nullptr;
    value = std::strtod(copy.c_str(), &end);
    if (end == copy.c_str() || !Trim(end).empty()) {
      return {std::numeric_limits<double>::quiet_NaN(), CellClass::kMalformed};
    }
  }
  if (!std::isfinite(value)) return {value, CellClass::kNonFinite};
  return {value, value < 0.0 ? CellClass::kNegative : CellClass::kOk};
}

namespace {

Status RowWidthError(std::size_t width, std::size_t header_width) {
  return InvalidArgumentError("row width " + std::to_string(width) +
                              " != header width " +
                              std::to_string(header_width));
}

void SplitFields(std::string_view line, CsvFields* fields) {
  fields->clear();
  for (std::size_t comma; (comma = line.find(',')) != line.npos;) {
    fields->push_back(line.substr(0, comma));
    line.remove_prefix(comma + 1);
  }
  fields->push_back(line);
}

}  // namespace

Status SplitCsv(std::string_view text,
                const std::function<void(const CsvFields&)>& on_header,
                const std::function<void(const CsvFields&)>& on_row) {
  if (text.empty()) return InvalidArgumentError("empty CSV document");
  CsvFields fields;
  std::size_t width = 0;
  for (bool header = true; !text.empty(); header = false) {
    const std::size_t newline = std::min(text.find('\n'), text.size());
    std::string_view line = text.substr(0, newline);
    text.remove_prefix(std::min(newline + 1, text.size()));
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() && !header) continue;
    SplitFields(line, &fields);
    if (header) {
      width = fields.size();
      on_header(fields);
    } else if (fields.size() != width) {
      return RowWidthError(fields.size(), width);
    } else {
      on_row(fields);
    }
  }
  return OkStatus();
}

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

Status CsvTable::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return RowWidthError(row.size(), header_.size());
  }
  rows_.push_back(std::move(row));
  return OkStatus();
}

StatusOr<std::size_t> CsvTable::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return NotFoundError("no column named '" + name + "'");
}

std::string CsvTable::ToString() const {
  std::ostringstream out;
  out << Join(header_, ",") << "\n";
  for (const auto& row : rows_) out << Join(row, ",") << "\n";
  return out.str();
}

Status CsvTable::WriteFile(const std::string& path) const {
  return WriteTextFileAtomic(path, ToString());
}

StatusOr<CsvTable> CsvTable::Parse(std::string_view text) {
  CsvTable table;
  DOPPLER_RETURN_IF_ERROR(SplitCsv(
      text,
      [&](const CsvFields& fields) {
        table.header_.assign(fields.begin(), fields.end());
      },
      [&](const CsvFields& fields) {
        table.rows_.emplace_back(fields.begin(), fields.end());
      }));
  return table;
}

StatusOr<CsvTable> CsvTable::ReadFile(const std::string& path) {
  DOPPLER_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  return Parse(text);
}

}  // namespace doppler
