// A reference copy of the row-at-a-time trace reader the columnar one
// replaced: CsvTable's getline split, GateTraceCsv's row passes and
// TraceFromCsv, each cell parsed by strtod. It carries the two reader fixes
// that went in with the columnar reader, so on every other input it is the
// old reader byte for byte:
//   - a line loses one trailing '\r' (CRLF files read like LF files);
//   - a timestamp whose grid slot does not fit in an int, or a median
//     spacing that fits no int64 cadence, is rejected under every policy
//     (FAILED_PRECONDITION), and TraceFromCsv's first delta must fit in
//     int64 before it is cast.
// trace_reader_oracle_test compares the two on seeded mutations of
// realistic traces. Test-only: nothing in src/ may use it.

#ifndef DOPPLER_TESTS_REFERENCE_TRACE_READER_H_
#define DOPPLER_TESTS_REFERENCE_TRACE_READER_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "quality/quality_gate.h"
#include "telemetry/perf_trace.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace doppler::reference {

using catalog::ResourceDim;
using quality::DefectClass;
using quality::GatedTrace;
using quality::GateOptions;
using quality::QualityPolicy;
using telemetry::PerfTrace;

inline constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------------------ CSV split.

// Fix: a line loses one trailing '\r'.
inline bool GetLine(std::istream& in, std::string* line) {
  if (!std::getline(in, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

inline StatusOr<CsvTable> ParseCsv(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!GetLine(in, &line)) {
    return InvalidArgumentError("empty CSV document");
  }
  CsvTable table(Split(line, ','));
  while (GetLine(in, &line)) {
    if (line.empty()) continue;
    DOPPLER_RETURN_IF_ERROR(table.AddRow(Split(line, ',')));
  }
  return table;
}

// ------------------------------------------------------------ The gate.

enum class CellFlag { kOk, kMalformed, kNonFinite, kNegative };

struct Cell {
  double value = kNan;
  CellFlag flag = CellFlag::kMalformed;
};

inline Cell ParseGateCell(const std::string& text) {
  Cell cell;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !Trim(end).empty()) {
    return cell;  // kMalformed.
  }
  cell.value = value;
  if (!std::isfinite(value)) {
    cell.flag = CellFlag::kNonFinite;
  } else if (value < 0.0) {
    cell.flag = CellFlag::kNegative;
  } else {
    cell.flag = CellFlag::kOk;
  }
  return cell;
}

struct RawRow {
  double t = 0.0;
  std::size_t source_row = 0;
  std::vector<Cell> cells;
};

inline int InterpolateMissing(std::vector<double>* values,
                              std::vector<bool>* ok) {
  const std::size_t n = values->size();
  int filled = 0;
  std::size_t prev_ok = n;
  for (std::size_t i = 0; i < n; ++i) {
    if ((*ok)[i]) {
      prev_ok = i;
      continue;
    }
    std::size_t next_ok = i + 1;
    while (next_ok < n && !(*ok)[next_ok]) ++next_ok;
    if (prev_ok == n && next_ok == n) return filled;
    double value;
    if (prev_ok == n) {
      value = (*values)[next_ok];
    } else if (next_ok == n) {
      value = (*values)[prev_ok];
    } else {
      const double w = static_cast<double>(i - prev_ok) /
                       static_cast<double>(next_ok - prev_ok);
      value = (*values)[prev_ok] * (1.0 - w) + (*values)[next_ok] * w;
    }
    (*values)[i] = value;
    (*ok)[i] = true;
    ++filled;
  }
  return filled;
}

inline bool AllZero(const std::vector<double>& values) {
  for (double v : values) {
    if (v != 0.0) return false;
  }
  return !values.empty();
}

inline std::string RowContext(std::size_t source_row,
                              const std::string& column) {
  return "data row " + std::to_string(source_row) + ", column '" + column +
         "'";
}

// Fix: an off-grid timestamp (slot beyond int, or no int64 cadence).
inline Status OffGridError(double t) {
  char text[32];
  const std::to_chars_result written = std::to_chars(text, text + 32, t);
  return FailedPreconditionError(
      "timestamp " + std::string(text, written.ptr) +
      " lies beyond any cadence grid; trace rejected rather than invented");
}

inline StatusOr<GatedTrace> GateTraceCsv(const CsvTable& table,
                                         const GateOptions& options) {
  DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col,
                           table.ColumnIndex("t_seconds"));
  const bool strict = options.policy == QualityPolicy::kStrict;
  const bool repair = options.policy == QualityPolicy::kRepair;

  std::vector<std::size_t> dim_cols;
  std::vector<ResourceDim> dims;
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (c == time_col) continue;
    ResourceDim dim;
    if (!catalog::ParseResourceDim(table.header()[c], &dim)) continue;
    dim_cols.push_back(c);
    dims.push_back(dim);
  }
  if (dims.empty()) {
    return InvalidArgumentError("CSV contains no known resource columns");
  }

  GatedTrace gated;
  gated.report.policy = options.policy;
  gated.report.samples_in = static_cast<int>(table.num_rows());

  // ---- Pass 1: parse rows; cell defects surface here.
  std::vector<RawRow> rows;
  rows.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    RawRow row;
    row.source_row = r + 1;
    const Cell t = ParseGateCell(table.row(r)[time_col]);
    if (t.flag == CellFlag::kMalformed || t.flag == CellFlag::kNonFinite) {
      if (strict) {
        return InvalidArgumentError(
            "unusable timestamp at " + RowContext(row.source_row, "t_seconds") +
            ": '" + table.row(r)[time_col] + "'");
      }
      gated.report.Add(DefectClass::kMalformedCell, 1, /*repaired=*/true,
                       "rows with unusable timestamps dropped");
      continue;
    }
    row.t = t.value;
    row.cells.reserve(dims.size());
    for (std::size_t d = 0; d < dims.size(); ++d) {
      Cell cell = ParseGateCell(table.row(r)[dim_cols[d]]);
      switch (cell.flag) {
        case CellFlag::kMalformed:
          if (strict) {
            return InvalidArgumentError(
                "not a number at " +
                RowContext(row.source_row, table.header()[dim_cols[d]]) +
                ": '" + table.row(r)[dim_cols[d]] + "'");
          }
          gated.report.Add(DefectClass::kMalformedCell, 1, repair,
                           repair ? "unparseable cells interpolated"
                                  : "unparseable cells carried as NaN");
          break;
        case CellFlag::kNonFinite:
          if (strict) {
            return InvalidArgumentError(
                "non-finite value at " +
                RowContext(row.source_row, table.header()[dim_cols[d]]));
          }
          gated.report.Add(DefectClass::kNonFinite, 1, repair,
                           repair ? "NaN/Inf cells interpolated"
                                  : "NaN/Inf cells kept");
          break;
        case CellFlag::kNegative:
          if (strict) {
            return InvalidArgumentError(
                "negative counter at " +
                RowContext(row.source_row, table.header()[dim_cols[d]]));
          }
          if (repair) {
            cell.value = 0.0;
            cell.flag = CellFlag::kOk;
            gated.report.Add(DefectClass::kNegative, 1, /*repaired=*/true,
                             "negative counters clamped to 0");
          } else {
            gated.report.Add(DefectClass::kNegative, 1, /*repaired=*/false,
                             "negative counters kept");
          }
          break;
        case CellFlag::kOk:
          break;
      }
      row.cells.push_back(cell);
    }
    rows.push_back(std::move(row));
  }
  if (rows.size() < options.min_samples) {
    return InvalidArgumentError(
        "trace retains " + std::to_string(rows.size()) +
        " usable samples; at least " + std::to_string(options.min_samples) +
        " required");
  }

  // ---- Pass 2: timestamp order.
  int inversions = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].t < rows[i - 1].t) {
      if (strict) {
        return InvalidArgumentError(
            "t_seconds not strictly increasing at data row " +
            std::to_string(rows[i].source_row));
      }
      ++inversions;
    }
  }
  if (inversions > 0) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const RawRow& a, const RawRow& b) { return a.t < b.t; });
    gated.report.Add(DefectClass::kOutOfOrder, inversions, /*repaired=*/true,
                     "rows re-sorted by timestamp");
  }

  // ---- Pass 3: duplicate timestamps.
  std::vector<RawRow> unique_rows;
  unique_rows.reserve(rows.size());
  int duplicates = 0;
  for (std::size_t i = 0; i < rows.size();) {
    std::size_t j = i + 1;
    while (j < rows.size() && rows[j].t == rows[i].t) ++j;
    if (j - i > 1) {
      if (strict) {
        return InvalidArgumentError("duplicate timestamp at data row " +
                                    std::to_string(rows[i + 1].source_row));
      }
      duplicates += static_cast<int>(j - i - 1);
      if (repair) {
        RawRow merged = rows[i];
        for (std::size_t d = 0; d < dims.size(); ++d) {
          double sum = 0.0;
          int n = 0;
          for (std::size_t k = i; k < j; ++k) {
            if (rows[k].cells[d].flag == CellFlag::kOk) {
              sum += rows[k].cells[d].value;
              ++n;
            }
          }
          if (n > 0) {
            merged.cells[d].value = sum / n;
            merged.cells[d].flag = CellFlag::kOk;
          }
        }
        unique_rows.push_back(std::move(merged));
      } else {
        unique_rows.push_back(rows[i]);
      }
    } else {
      unique_rows.push_back(rows[i]);
    }
    i = j;
  }
  if (duplicates > 0) {
    gated.report.Add(DefectClass::kDuplicateTimestamp, duplicates,
                     /*repaired=*/true,
                     repair ? "duplicate samples averaged"
                            : "first of each duplicate kept");
  }
  rows = std::move(unique_rows);

  // ---- Pass 4: cadence.
  std::int64_t interval = telemetry::kDmaIntervalSeconds;
  if (rows.size() >= 2) {
    std::vector<double> deltas;
    deltas.reserve(rows.size() - 1);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      deltas.push_back(rows[i].t - rows[i - 1].t);
    }
    std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                     deltas.end());
    // Fix: a median spacing beyond int64 is no cadence.
    if (!(deltas[deltas.size() / 2] < 0x1p63)) {
      return OffGridError(rows.back().t);
    }
    interval = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(deltas[deltas.size() / 2])));
  }
  if (options.canonical_interval_seconds > 0 &&
      interval != options.canonical_interval_seconds) {
    const double canonical =
        static_cast<double>(options.canonical_interval_seconds);
    if (std::abs(static_cast<double>(interval) - canonical) <=
        0.1 * canonical) {
      interval = options.canonical_interval_seconds;
    }
  }

  const double t0 = rows.front().t;
  int drift = 0;
  std::vector<std::size_t> slots(rows.size());
  std::size_t last_slot = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double exact = (rows[i].t - t0) / static_cast<double>(interval);
    // Fix: range-check the slot before the cast.
    const double rounded = std::max(0.0, std::round(exact));
    if (!(rounded <= std::numeric_limits<int>::max())) {
      return OffGridError(rows[i].t);
    }
    const auto slot = static_cast<std::size_t>(rounded);
    const double off = std::abs(rows[i].t - (t0 + static_cast<double>(slot) *
                                                      static_cast<double>(interval)));
    if (off > options.cadence_drift_tolerance * static_cast<double>(interval)) {
      if (strict) {
        return InvalidArgumentError(
            "cadence drift at data row " + std::to_string(rows[i].source_row) +
            ": timestamp " + FormatDouble(rows[i].t, 1) + " is off the " +
            std::to_string(interval) + "s grid");
      }
      ++drift;
    }
    slots[i] = slot;
    last_slot = std::max(last_slot, slot);
  }
  if (drift > 0) {
    gated.report.Add(DefectClass::kCadenceDrift, drift, repair,
                     repair ? "timestamps snapped to the cadence grid"
                            : "off-grid timestamps recorded");
  }

  // ---- Pass 5: build the aligned series.
  PerfTrace trace(interval);
  std::vector<ResourceDim> kept_dims;

  if (repair) {
    int gap_slots = 0;
    std::size_t longest_gap = 0;
    {
      std::vector<bool> has_row(last_slot + 1, false);
      for (std::size_t slot : slots) has_row[slot] = true;
      std::size_t run = 0;
      for (std::size_t s = 0; s <= last_slot; ++s) {
        if (has_row[s]) {
          run = 0;
        } else {
          ++gap_slots;
          longest_gap = std::max(longest_gap, ++run);
        }
      }
    }
    if (longest_gap > options.max_gap_intervals) {
      return FailedPreconditionError(
          "collector gap of " + std::to_string(longest_gap) +
          " samples exceeds the " + std::to_string(options.max_gap_intervals) +
          "-sample repair limit; trace rejected rather than invented");
    }
    if (gap_slots > 0) {
      gated.report.Add(DefectClass::kGap, gap_slots, /*repaired=*/true,
                       "missing sample windows filled by linear "
                       "interpolation");
    }

    for (std::size_t d = 0; d < dims.size(); ++d) {
      std::vector<double> values(last_slot + 1, kNan);
      std::vector<bool> ok(last_slot + 1, false);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].cells[d].flag == CellFlag::kOk) {
          values[slots[i]] = rows[i].cells[d].value;
          ok[slots[i]] = true;
        }
      }
      const bool any_ok = std::find(ok.begin(), ok.end(), true) != ok.end();
      if (!any_ok) {
        gated.report.Add(DefectClass::kMalformedCell,
                         static_cast<int>(values.size()), /*repaired=*/true,
                         std::string("column '") +
                             catalog::ResourceDimName(dims[d]) +
                             "' dropped: no usable cells");
        continue;
      }
      InterpolateMissing(&values, &ok);
      if (AllZero(values)) {
        gated.report.Add(DefectClass::kDeadCounter,
                         static_cast<int>(values.size()), /*repaired=*/true,
                         std::string("constant-zero counter '") +
                             catalog::ResourceDimName(dims[d]) +
                             "' dropped from the assessment");
        continue;
      }
      DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dims[d], std::move(values)));
      kept_dims.push_back(dims[d]);
    }
  } else {
    int gap_slots = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (slots[i] > slots[i - 1] + 1) {
        gap_slots += static_cast<int>(slots[i] - slots[i - 1] - 1);
      }
    }
    if (gap_slots > 0) {
      if (strict) {
        return FailedPreconditionError(
            "trace has " + std::to_string(gap_slots) +
            " missing sample windows");
      }
      gated.report.Add(DefectClass::kGap, gap_slots, /*repaired=*/false,
                       "missing sample windows compress time (record-only "
                       "policy)");
    }
    for (std::size_t d = 0; d < dims.size(); ++d) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (const RawRow& row : rows) values.push_back(row.cells[d].value);
      if (AllZero(values)) {
        if (strict) {
          return FailedPreconditionError(
              std::string("dead (constant-zero) counter: ") +
              catalog::ResourceDimName(dims[d]));
        }
        gated.report.Add(DefectClass::kDeadCounter,
                         static_cast<int>(values.size()), /*repaired=*/false,
                         std::string("constant-zero counter '") +
                             catalog::ResourceDimName(dims[d]) + "' kept");
      }
      DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dims[d], std::move(values)));
      kept_dims.push_back(dims[d]);
    }
  }

  if (kept_dims.empty()) {
    return FailedPreconditionError(
        "every resource column was dead or unusable; nothing to assess");
  }
  if (trace.num_samples() < options.min_samples) {
    return InvalidArgumentError(
        "trace retains " + std::to_string(trace.num_samples()) +
        " usable samples; at least " + std::to_string(options.min_samples) +
        " required");
  }

  quality::AssessDegradedMode(kept_dims, options.expected_dims,
                              &gated.report);
  if (strict && gated.report.degraded) {
    std::string names;
    for (ResourceDim dim : gated.report.missing_dims) {
      if (!names.empty()) names += ", ";
      names += catalog::ResourceDimName(dim);
    }
    return FailedPreconditionError("expected dimensions missing: " + names);
  }

  gated.report.samples_out = static_cast<int>(trace.num_samples());
  gated.trace = std::move(trace);
  return gated;
}

// ------------------------------------------------------------ TraceFromCsv.

inline StatusOr<double> ParseNumber(const std::string& text,
                                    const std::string& context) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !Trim(end).empty()) {
    return InvalidArgumentError("not a number at " + context + ": '" + text +
                                "'");
  }
  if (!std::isfinite(value)) {
    return InvalidArgumentError("non-finite value at " + context + ": '" +
                                text + "'");
  }
  return value;
}

inline std::string CellContext(std::size_t row, const std::string& column) {
  return "data row " + std::to_string(row + 1) + ", column '" + column + "'";
}

inline StatusOr<PerfTrace> TraceFromCsv(const CsvTable& table) {
  DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col,
                           table.ColumnIndex("t_seconds"));
  std::int64_t interval = telemetry::kDmaIntervalSeconds;
  double previous_t = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    DOPPLER_ASSIGN_OR_RETURN(
        double t, ParseNumber(table.row(r)[time_col],
                              CellContext(r, "t_seconds")));
    if (r > 0 && t <= previous_t) {
      return InvalidArgumentError(
          "t_seconds must be strictly increasing (violated at " +
          CellContext(r, "t_seconds") + ")");
    }
    if (r == 1) {
      // Fix: a first delta beyond int64 is no cadence.
      if (!(t - previous_t < 0x1p63)) {
        return InvalidArgumentError("t_seconds must be strictly increasing");
      }
      const auto delta = static_cast<std::int64_t>(t - previous_t);
      if (delta <= 0) {
        return InvalidArgumentError("t_seconds must be strictly increasing");
      }
      interval = delta;
    }
    previous_t = t;
  }

  PerfTrace trace(interval);
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (c == time_col) continue;
    catalog::ResourceDim dim;
    if (!catalog::ParseResourceDim(table.header()[c], &dim)) continue;
    std::vector<double> values;
    values.reserve(table.num_rows());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      DOPPLER_ASSIGN_OR_RETURN(
          double v,
          ParseNumber(table.row(r)[c], CellContext(r, table.header()[c])));
      values.push_back(v);
    }
    DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dim, std::move(values)));
  }
  if (trace.PresentDims().empty()) {
    return InvalidArgumentError("CSV contains no known resource columns");
  }
  return trace;
}

// ------------------------------------------------------ Whole-text entries.

/// ReadTraceFileGated on a file holding `text`.
inline StatusOr<GatedTrace> GateTraceText(const std::string& text,
                                          const GateOptions& options) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text));
  return reference::GateTraceCsv(table, options);
}

/// ReadTraceFile on a file holding `text`.
inline StatusOr<PerfTrace> ReadTraceText(const std::string& text) {
  DOPPLER_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text));
  return reference::TraceFromCsv(table);
}

}  // namespace doppler::reference

#endif  // DOPPLER_TESTS_REFERENCE_TRACE_READER_H_
