#ifndef DOPPLER_UTIL_CSV_H_
#define DOPPLER_UTIL_CSV_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace doppler {

/// What a CSV cell holds as a number.
enum class CellClass : std::uint8_t { kOk, kMalformed, kNonFinite, kNegative };

struct ParsedCell {
  /// NaN when the cell is malformed.
  double value;
  CellClass cls;
};

/// The one number rule for CSV cells (trace counters and timestamps, and
/// the static catalog, profile and layout files). A NUL ends the cell, as
/// it ends a C string; blanks around the number are ignored. The number is
/// read as C `strtod` reads it, so a leading '+', hex floats and
/// inf/nan spellings are numbers, overflow reads as +-inf (non-finite) and
/// underflow as 0. Plain decimals take a locale-free `std::from_chars`
/// fast path that reads the same bits.
ParsedCell ParseCell(std::string_view text);

/// The fields of one CSV line, viewing the text they were split from.
using CsvFields = std::vector<std::string_view>;

/// The one CSV splitter. Lines end at '\n' and lose one trailing '\r', so
/// CRLF files read like LF files; empty lines are skipped; fields split at
/// ',' with empty ones kept. Calls `on_header` for the first line, then
/// `on_row` for every data line. INVALID_ARGUMENT for an empty document or
/// a row whose width differs from the header's.
Status SplitCsv(std::string_view text,
                const std::function<void(const CsvFields&)>& on_header,
                const std::function<void(const CsvFields&)>& on_row);

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

  /// Parses CSV text (first line is the header) with SplitCsv.
  static StatusOr<CsvTable> Parse(std::string_view text);

  /// Reads the file at `path` (ReadTextFile) and parses it.
  static StatusOr<CsvTable> ReadFile(const std::string& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace doppler

#endif  // DOPPLER_UTIL_CSV_H_
