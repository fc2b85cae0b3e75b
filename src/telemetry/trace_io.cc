#include "telemetry/trace_io.h"

#include "util/string_util.h"

namespace doppler::telemetry {

CsvTable TraceToCsv(const PerfTrace& trace) {
  const std::vector<catalog::ResourceDim> dims = trace.PresentDims();
  std::vector<std::string> header = {"t_seconds"};
  for (catalog::ResourceDim dim : dims) {
    header.emplace_back(catalog::ResourceDimName(dim));
  }
  CsvTable table(std::move(header));
  for (std::size_t i = 0; i < trace.num_samples(); ++i) {
    std::vector<std::string> row;
    row.reserve(dims.size() + 1);
    row.push_back(std::to_string(
        static_cast<std::int64_t>(i) * trace.interval_seconds()));
    for (catalog::ResourceDim dim : dims) {
      row.push_back(FormatDouble(trace.Values(dim)[i], 6));
    }
    (void)table.AddRow(std::move(row));  // Width always matches the header.
  }
  return table;
}

std::string CellName(std::string_view source, std::size_t row,
                     std::string_view column) {
  std::string name(source);
  if (!name.empty()) name += " ";
  return name + "data row " + std::to_string(row + 1) + ", column '" +
         std::string(column) + "'";
}

StatusOr<double> ParseStrictCell(std::string_view text,
                                 std::string_view source, std::size_t row,
                                 std::string_view column) {
  const ParsedCell cell = ParseCell(text);
  if (cell.cls == CellClass::kMalformed) {
    return InvalidArgumentError("not a number at " +
                                CellName(source, row, column) + ": '" +
                                std::string(text) + "'");
  }
  if (cell.cls == CellClass::kNonFinite) {
    return InvalidArgumentError("non-finite value at " +
                                CellName(source, row, column) + ": '" +
                                std::string(text) + "'");
  }
  return cell.value;
}

StatusOr<std::int64_t> StrictCadence(const CsvTable& table,
                                     std::size_t time_col,
                                     std::string_view source,
                                     const std::string& rule) {
  const std::string& column = table.header()[time_col];
  std::int64_t interval = kDmaIntervalSeconds;
  double previous = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    DOPPLER_ASSIGN_OR_RETURN(
        const double t,
        ParseStrictCell(table.row(r)[time_col], source, r, column));
    if (r > 0 && t <= previous) {
      return InvalidArgumentError(rule + " (violated at " +
                                  CellName(source, r, column) + ")");
    }
    if (r == 1) {
      const double delta = t - previous;
      if (!(delta < 0x1p63) || static_cast<std::int64_t>(delta) <= 0) {
        return InvalidArgumentError(rule);
      }
      interval = static_cast<std::int64_t>(delta);
    }
    previous = t;
  }
  return interval;
}

StatusOr<PerfTrace> TraceFromCsv(const CsvTable& table) {
  DOPPLER_ASSIGN_OR_RETURN(const std::size_t time_col,
                           table.ColumnIndex("t_seconds"));
  DOPPLER_ASSIGN_OR_RETURN(
      const std::int64_t interval,
      StrictCadence(table, time_col, "",
                    "t_seconds must be strictly increasing"));

  PerfTrace trace(interval);
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (c == time_col) continue;
    catalog::ResourceDim dim;
    if (!catalog::ParseResourceDim(table.header()[c], &dim)) continue;
    std::vector<double> values;
    values.reserve(table.num_rows());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      DOPPLER_ASSIGN_OR_RETURN(
          double v, ParseStrictCell(table.row(r)[c], "", r, table.header()[c]));
      values.push_back(v);
    }
    DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dim, std::move(values)));
  }
  if (trace.PresentDims().empty()) {
    return InvalidArgumentError("CSV contains no known resource columns");
  }
  return trace;
}

Status WriteTraceFile(const PerfTrace& trace, const std::string& path) {
  return TraceToCsv(trace).WriteFile(path);
}

StatusOr<PerfTrace> ReadTraceFile(const std::string& path) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, CsvTable::ReadFile(path));
  return TraceFromCsv(table);
}

}  // namespace doppler::telemetry
