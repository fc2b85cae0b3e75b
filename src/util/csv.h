#ifndef DOPPLER_UTIL_CSV_H_
#define DOPPLER_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace doppler {

/// In-memory CSV document: a header row plus data rows of equal width.
/// Used for persisting perf traces, assessment results and experiment
/// outputs; the format is plain RFC-4180 minus quoting (fields in this
/// library never contain commas or newlines).
class CsvTable {
 public:
  CsvTable() = default;

  /// Creates a table with the given column names.
  explicit CsvTable(std::vector<std::string> header);

  /// Column names.
  const std::vector<std::string>& header() const { return header_; }

  /// Appends a row; returns INVALID_ARGUMENT when the width differs from
  /// the header width.
  Status AddRow(std::vector<std::string> row);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return header_.size(); }

  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

  /// Index of the named column, or NOT_FOUND.
  StatusOr<std::size_t> ColumnIndex(const std::string& name) const;

  /// Serializes the whole table (header first) to CSV text.
  std::string ToString() const;

  /// Replaces `path` with the table atomically (WriteTextFileAtomic), so a
  /// concurrent reader never sees a torn file; UNAVAILABLE on IO errors.
  Status WriteFile(const std::string& path) const;

  /// Parses CSV text (first line is the header).
  static StatusOr<CsvTable> Parse(const std::string& text);

  /// Reads and parses the file at `path`.
  static StatusOr<CsvTable> ReadFile(const std::string& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace doppler

#endif  // DOPPLER_UTIL_CSV_H_
