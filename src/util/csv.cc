#include "util/csv.h"

#include <fstream>
#include <sstream>

#include "util/file_util.h"
#include "util/string_util.h"

namespace doppler {

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

Status CsvTable::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return InvalidArgumentError("row width " + std::to_string(row.size()) +
                                " != header width " +
                                std::to_string(header_.size()));
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

StatusOr<CsvTable> CsvTable::Parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return InvalidArgumentError("empty CSV document");
  }
  CsvTable table(Split(line, ','));
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    DOPPLER_RETURN_IF_ERROR(table.AddRow(Split(line, ',')));
  }
  return table;
}

StatusOr<CsvTable> CsvTable::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return UnavailableError("cannot open '" + path + "'");
  std::ostringstream contents;
  contents << in.rdbuf();
  return Parse(contents.str());
}

}  // namespace doppler
