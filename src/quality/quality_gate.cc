#include "quality/quality_gate.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace doppler::quality {

namespace {

using catalog::ResourceDim;
using telemetry::PerfTrace;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// What the parser found in one cell.
enum class CellFlag { kOk, kMalformed, kNonFinite, kNegative };

struct ParsedCell {
  double value = kNan;
  CellFlag flag = CellFlag::kMalformed;
};

ParsedCell ParseCell(const std::string& text) {
  ParsedCell cell;
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

/// One raw sample: timestamp, source row (1-based, for diagnostics), and
/// one parsed cell per gated dimension column.
struct RawRow {
  double t = 0.0;
  std::size_t source_row = 0;
  std::vector<ParsedCell> cells;
};

/// Linear interpolation of every not-ok slot from its nearest ok
/// neighbours (ends hold the nearest ok value). Returns the number of
/// slots filled; leaves the series untouched when no slot is ok.
int InterpolateMissing(std::vector<double>* values, std::vector<bool>* ok) {
  const std::size_t n = values->size();
  int filled = 0;
  std::size_t prev_ok = n;  // n = none seen yet.
  for (std::size_t i = 0; i < n; ++i) {
    if ((*ok)[i]) {
      prev_ok = i;
      continue;
    }
    // Find the next ok slot.
    std::size_t next_ok = i + 1;
    while (next_ok < n && !(*ok)[next_ok]) ++next_ok;
    if (prev_ok == n && next_ok == n) return filled;  // Nothing to anchor on.
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

bool AllZero(const std::vector<double>& values) {
  for (double v : values) {
    if (v != 0.0) return false;
  }
  return !values.empty();
}

std::string RowContext(std::size_t source_row, const std::string& column) {
  return "data row " + std::to_string(source_row) + ", column '" + column +
         "'";
}

// Exports what a completed gate found: total/repaired counts plus one
// counter per defect class ("quality.defect.gap", ...). Gate granularity,
// so the name lookups are off the hot path.
void RecordGateMetrics(const TraceQualityReport& report) {
  obs::MetricsRegistry& metrics = obs::DefaultMetrics();
  metrics.GetCounter("quality.gates")->Increment();
  metrics.GetCounter("quality.defects_found")
      ->Increment(static_cast<std::uint64_t>(report.TotalDefects()));
  metrics.GetCounter("quality.defects_repaired")
      ->Increment(static_cast<std::uint64_t>(report.RepairedDefects()));
  for (const QualityDefect& defect : report.defects) {
    metrics
        .GetCounter(std::string("quality.defect.") +
                    DefectClassName(defect.defect))
        ->Increment(static_cast<std::uint64_t>(defect.count));
  }
}

}  // namespace

void AssessDegradedMode(const std::vector<ResourceDim>& present,
                        const std::vector<ResourceDim>& expected,
                        TraceQualityReport* report) {
  report->assessed_dims = present;
  report->missing_dims.clear();
  for (ResourceDim dim : expected) {
    if (std::find(present.begin(), present.end(), dim) == present.end()) {
      report->missing_dims.push_back(dim);
    }
  }
  report->degraded = !report->missing_dims.empty();
  report->confidence_penalty =
      expected.empty() ? 0.0
                       : static_cast<double>(report->missing_dims.size()) /
                             static_cast<double>(expected.size());
  if (report->degraded) {
    std::string names;
    for (ResourceDim dim : report->missing_dims) {
      if (!names.empty()) names += ", ";
      names += catalog::ResourceDimName(dim);
    }
    report->Add(DefectClass::kMissingDimension,
                static_cast<int>(report->missing_dims.size()),
                /*repaired=*/false,
                "assessment narrowed to collected dimensions; missing: " +
                    names);
  }
}

StatusOr<GatedTrace> GateTraceCsv(const CsvTable& table,
                                  const GateOptions& options) {
  DOPPLER_TRACE_SPAN("quality.gate_csv");
  DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col,
                           table.ColumnIndex("t_seconds"));
  const bool strict = options.policy == QualityPolicy::kStrict;
  const bool repair = options.policy == QualityPolicy::kRepair;

  // Map gated columns to dimensions (unknown columns are ignored, matching
  // TraceFromCsv).
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
    const ParsedCell t = ParseCell(table.row(r)[time_col]);
    if (t.flag == CellFlag::kMalformed || t.flag == CellFlag::kNonFinite) {
      if (strict) {
        return InvalidArgumentError(
            "unusable timestamp at " + RowContext(row.source_row, "t_seconds") +
            ": '" + table.row(r)[time_col] + "'");
      }
      // A sample that cannot be placed in time is dropped under both
      // repair and permissive: there is no slot to carry it in.
      gated.report.Add(DefectClass::kMalformedCell, 1, /*repaired=*/true,
                       "rows with unusable timestamps dropped");
      continue;
    }
    row.t = t.value;
    row.cells.reserve(dims.size());
    for (std::size_t d = 0; d < dims.size(); ++d) {
      ParsedCell cell = ParseCell(table.row(r)[dim_cols[d]]);
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
    // Sorting is structural: PerfTrace has no timestamps, so order must be
    // restored before the series can exist at all (hence "repaired" even
    // under the record-only policy).
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
        // Average the duplicates' usable cells per dimension.
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
        unique_rows.push_back(rows[i]);  // Record-only keeps the first.
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

  // ---- Pass 4: cadence. The dominant interval is the median delta.
  std::int64_t interval = telemetry::kDmaIntervalSeconds;
  if (rows.size() >= 2) {
    std::vector<double> deltas;
    deltas.reserve(rows.size() - 1);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      deltas.push_back(rows[i].t - rows[i - 1].t);
    }
    std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                     deltas.end());
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

  // Assign each row to its grid slot; drift and gaps surface here.
  const double t0 = rows.front().t;
  int drift = 0;
  std::vector<std::size_t> slots(rows.size());
  std::size_t last_slot = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double exact = (rows[i].t - t0) / static_cast<double>(interval);
    const auto slot = static_cast<std::size_t>(std::max(0.0, std::round(exact)));
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
    // Slot-indexed assembly: gaps and bad cells become missing slots, all
    // interpolated in one pass so Eq. 1 keeps every time point.
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
      const bool any_ok =
          std::find(ok.begin(), ok.end(), true) != ok.end();
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
    // Record-only: keep the sorted samples as-is; gaps compress time and
    // are recorded, not filled.
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

  // ---- Pass 6: degraded-mode assessment.
  AssessDegradedMode(kept_dims, options.expected_dims, &gated.report);
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
  RecordGateMetrics(gated.report);
  return gated;
}

StatusOr<GatedTrace> GateTrace(const PerfTrace& trace,
                               const GateOptions& options) {
  DOPPLER_TRACE_SPAN("quality.gate");
  const bool strict = options.policy == QualityPolicy::kStrict;
  const bool repair = options.policy == QualityPolicy::kRepair;
  if (trace.num_samples() < options.min_samples) {
    return InvalidArgumentError(
        "trace has " + std::to_string(trace.num_samples()) +
        " samples; at least " + std::to_string(options.min_samples) +
        " required");
  }

  GatedTrace gated;
  gated.report.policy = options.policy;
  gated.report.samples_in = static_cast<int>(trace.num_samples());
  gated.report.samples_out = gated.report.samples_in;

  PerfTrace cleaned(trace.interval_seconds());
  cleaned.set_id(trace.id());
  std::vector<ResourceDim> kept_dims;
  for (ResourceDim dim : trace.PresentDims()) {
    std::vector<double> values = trace.Values(dim);
    std::vector<bool> ok(values.size(), true);
    int non_finite = 0;
    int negative = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!std::isfinite(values[i])) {
        if (strict) {
          return InvalidArgumentError(
              std::string("non-finite value in dimension '") +
              catalog::ResourceDimName(dim) + "' at sample " +
              std::to_string(i));
        }
        ++non_finite;
        if (repair) ok[i] = false;
      } else if (values[i] < 0.0) {
        if (strict) {
          return InvalidArgumentError(
              std::string("negative counter in dimension '") +
              catalog::ResourceDimName(dim) + "' at sample " +
              std::to_string(i));
        }
        ++negative;
        if (repair) values[i] = 0.0;
      }
    }
    if (non_finite > 0) {
      gated.report.Add(DefectClass::kNonFinite, non_finite, repair,
                       repair ? "NaN/Inf samples interpolated"
                              : "NaN/Inf samples kept");
    }
    if (negative > 0) {
      gated.report.Add(DefectClass::kNegative, negative, repair,
                       repair ? "negative counters clamped to 0"
                              : "negative counters kept");
    }
    if (repair) {
      const bool any_ok = std::find(ok.begin(), ok.end(), true) != ok.end();
      if (!any_ok) {
        gated.report.Add(DefectClass::kDeadCounter,
                         static_cast<int>(values.size()), /*repaired=*/true,
                         std::string("counter '") +
                             catalog::ResourceDimName(dim) +
                             "' dropped: no finite samples");
        continue;
      }
      InterpolateMissing(&values, &ok);
      if (AllZero(values)) {
        if (strict) {
          return FailedPreconditionError(
              std::string("dead (constant-zero) counter: ") +
              catalog::ResourceDimName(dim));
        }
        gated.report.Add(DefectClass::kDeadCounter,
                         static_cast<int>(values.size()), /*repaired=*/true,
                         std::string("constant-zero counter '") +
                             catalog::ResourceDimName(dim) +
                             "' dropped from the assessment");
        continue;
      }
    } else if (AllZero(values)) {
      if (strict) {
        return FailedPreconditionError(
            std::string("dead (constant-zero) counter: ") +
            catalog::ResourceDimName(dim));
      }
      gated.report.Add(DefectClass::kDeadCounter,
                       static_cast<int>(values.size()), /*repaired=*/false,
                       std::string("constant-zero counter '") +
                           catalog::ResourceDimName(dim) + "' kept");
    }
    DOPPLER_RETURN_IF_ERROR(cleaned.SetSeries(dim, std::move(values)));
    kept_dims.push_back(dim);
  }

  if (kept_dims.empty()) {
    return FailedPreconditionError(
        "every collected counter was dead or non-finite; nothing to assess");
  }

  AssessDegradedMode(kept_dims, options.expected_dims, &gated.report);
  if (strict && gated.report.degraded) {
    std::string names;
    for (ResourceDim dim : gated.report.missing_dims) {
      if (!names.empty()) names += ", ";
      names += catalog::ResourceDimName(dim);
    }
    return FailedPreconditionError("expected dimensions missing: " + names);
  }

  gated.trace = std::move(cleaned);
  RecordGateMetrics(gated.report);
  return gated;
}

StatusOr<GatedTrace> ReadTraceFileGated(const std::string& path,
                                        const GateOptions& options) {
  CsvTable table;
  {
    DOPPLER_TRACE_SPAN("telemetry.read");
    DOPPLER_ASSIGN_OR_RETURN(table, CsvTable::ReadFile(path));
  }
  return GateTraceCsv(table, options);
}

}  // namespace doppler::quality
