#include "quality/quality_gate.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace doppler::quality {

namespace {

using catalog::ResourceDim;
using telemetry::PerfTrace;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

// The largest grid slot the gate places a row on: the report counts slots
// as int. A cadence must fit in int64.
constexpr double kMaxSlot = std::numeric_limits<int>::max();
constexpr double kMaxCadenceSeconds = 0x1p63;

/// A trace CSV read column-wise: the timestamp column, and one value column
/// plus one class column per known resource column (header order; other
/// columns are skipped). Rows arrive as string_view fields, so a file's
/// lines and a CsvTable's rows fill the same columns.
struct TraceColumns {
  std::size_t time_col = kNoColumn;
  std::vector<std::size_t> cols;  // Source column of each dimension.
  std::vector<ResourceDim> dims;
  std::vector<double> t;  // NaN or +-inf where unusable.
  std::vector<std::vector<double>> values;
  std::vector<std::vector<CellClass>> classes;
  /// The first defective cell in reading order (a row's timestamp before
  /// its counters): its 1-based data row (0 = none) and its text, which
  /// strict-mode messages quote.
  std::size_t fault_row = 0;
  std::string fault_text;

  void SetHeader(const CsvFields& header, std::size_t rows) {
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (header[c] == "t_seconds" && time_col == kNoColumn) {
        time_col = c;
        continue;
      }
      ResourceDim dim;
      if (!catalog::ParseResourceDim(std::string(header[c]), &dim)) continue;
      cols.push_back(c);
      dims.push_back(dim);
    }
    t.reserve(rows);
    values.assign(dims.size(), {});
    classes.assign(dims.size(), {});
    for (std::size_t d = 0; d < dims.size(); ++d) {
      values[d].reserve(rows);
      classes[d].reserve(rows);
    }
  }

  void AddRow(const CsvFields& fields) {
    if (time_col == kNoColumn) return;
    t.push_back(ParseCell(fields[time_col]).value);
    if (!std::isfinite(t.back())) NoteFault(fields[time_col]);
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const ParsedCell cell = ParseCell(fields[cols[d]]);
      values[d].push_back(cell.value);
      classes[d].push_back(cell.cls);
      if (cell.cls != CellClass::kOk) NoteFault(fields[cols[d]]);
    }
  }

  void NoteFault(std::string_view text) {
    if (fault_row != 0) return;
    fault_row = t.size();
    fault_text = text;
  }

  /// Keeps rows `index[0]`, `index[1]`, ... in that order: one permutation
  /// (or selection) applied to every column.
  void Keep(const std::vector<std::size_t>& index) {
    Gather(index, &t);
    for (std::size_t d = 0; d < dims.size(); ++d) {
      Gather(index, &values[d]);
      Gather(index, &classes[d]);
    }
  }

  template <typename T>
  static void Gather(const std::vector<std::size_t>& index,
                     std::vector<T>* column) {
    std::vector<T> kept;
    kept.reserve(index.size());
    for (std::size_t i : index) kept.push_back((*column)[i]);
    *column = std::move(kept);
  }
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

std::string DimNames(const std::vector<ResourceDim>& dims) {
  std::string names;
  for (ResourceDim dim : dims) {
    if (!names.empty()) names += ", ";
    names += catalog::ResourceDimName(dim);
  }
  return names;
}

// Both gates end here: degraded mode against the expected dimensions (the
// strict policy refuses it), then the gated trace.
StatusOr<GatedTrace> FinishGate(GatedTrace gated, PerfTrace trace,
                                const std::vector<ResourceDim>& kept_dims,
                                const GateOptions& options) {
  AssessDegradedMode(kept_dims, options.expected_dims, &gated.report);
  if (options.policy == QualityPolicy::kStrict && gated.report.degraded) {
    return FailedPreconditionError("expected dimensions missing: " +
                                   DimNames(gated.report.missing_dims));
  }
  gated.trace = std::move(trace);
  RecordGateMetrics(gated.report);
  return gated;
}

// A timestamp whose grid slot does not fit in an int, or a spacing that
// fits no int64 cadence, lies beyond any gap the gate could count or
// bridge: every policy rejects the trace, as repair rejects an over-long
// gap.
Status OffGridError(double t) {
  char text[32];
  const std::to_chars_result written = std::to_chars(text, text + 32, t);
  return FailedPreconditionError(
      "timestamp " + std::string(text, written.ptr) +
      " lies beyond any cadence grid; trace rejected rather than invented");
}

// The gate proper, on a trace read into columns.
StatusOr<GatedTrace> GateColumns(TraceColumns columns,
                                 const GateOptions& options) {
  DOPPLER_TRACE_SPAN("quality.gate_csv");
  if (columns.time_col == kNoColumn) {
    return NotFoundError("no column named 't_seconds'");
  }
  const std::vector<ResourceDim>& dims = columns.dims;
  if (dims.empty()) {
    return InvalidArgumentError("CSV contains no known resource columns");
  }
  const bool strict = options.policy == QualityPolicy::kStrict;
  const bool repair = options.policy == QualityPolicy::kRepair;
  std::vector<double>& t = columns.t;

  GatedTrace gated;
  gated.report.policy = options.policy;
  gated.report.samples_in = static_cast<int>(t.size());

  // ---- Pass 1: cell defects, row by row from the first defective one.
  if (columns.fault_row != 0) {
    std::vector<std::size_t> usable(columns.fault_row - 1);
    std::iota(usable.begin(), usable.end(), 0);
    for (std::size_t r = columns.fault_row - 1; r < t.size(); ++r) {
      if (!std::isfinite(t[r])) {
        if (strict) {
          return InvalidArgumentError(
              "unusable timestamp at " + RowContext(r + 1, "t_seconds") +
              ": '" + columns.fault_text + "'");
        }
        // A sample that cannot be placed in time is dropped under both
        // repair and permissive: there is no slot to carry it in.
        gated.report.Add(DefectClass::kMalformedCell, 1, /*repaired=*/true,
                         "rows with unusable timestamps dropped");
        continue;
      }
      usable.push_back(r);
      for (std::size_t d = 0; d < dims.size(); ++d) {
        const char* column = catalog::ResourceDimName(dims[d]);
        CellClass& cls = columns.classes[d][r];
        switch (cls) {
          case CellClass::kMalformed:
            if (strict) {
              return InvalidArgumentError("not a number at " +
                                          RowContext(r + 1, column) + ": '" +
                                          columns.fault_text + "'");
            }
            gated.report.Add(DefectClass::kMalformedCell, 1, repair,
                             repair ? "unparseable cells interpolated"
                                    : "unparseable cells carried as NaN");
            break;
          case CellClass::kNonFinite:
            if (strict) {
              return InvalidArgumentError("non-finite value at " +
                                          RowContext(r + 1, column));
            }
            gated.report.Add(DefectClass::kNonFinite, 1, repair,
                             repair ? "NaN/Inf cells interpolated"
                                    : "NaN/Inf cells kept");
            break;
          case CellClass::kNegative:
            if (strict) {
              return InvalidArgumentError("negative counter at " +
                                          RowContext(r + 1, column));
            }
            if (repair) {
              columns.values[d][r] = 0.0;
              cls = CellClass::kOk;
            }
            gated.report.Add(DefectClass::kNegative, 1, repair,
                             repair ? "negative counters clamped to 0"
                                    : "negative counters kept");
            break;
          case CellClass::kOk:
            break;
        }
      }
    }
    if (usable.size() < t.size()) columns.Keep(usable);
  }
  if (t.size() < options.min_samples) {
    return InvalidArgumentError(
        "trace retains " + std::to_string(t.size()) +
        " usable samples; at least " + std::to_string(options.min_samples) +
        " required");
  }
  // Without strict, rows may since have been dropped; strict has failed on
  // any such row, so there row i is still data row i + 1.

  // ---- Pass 2: timestamp order.
  int inversions = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] < t[i - 1]) {
      if (strict) {
        return InvalidArgumentError(
            "t_seconds not strictly increasing at data row " +
            std::to_string(i + 1));
      }
      ++inversions;
    }
  }
  if (inversions > 0) {
    // Sorting is structural: PerfTrace has no timestamps, so order must be
    // restored before the series can exist at all (hence "repaired" even
    // under the record-only policy).
    std::vector<std::size_t> order(t.size());
    std::iota(order.begin(), order.end(), 0);
    const auto earlier = [&t](std::size_t a, std::size_t b) {
      return t[a] < t[b];
    };
    std::stable_sort(order.begin(), order.end(), earlier);
    columns.Keep(order);
    gated.report.Add(DefectClass::kOutOfOrder, inversions, /*repaired=*/true,
                     "rows re-sorted by timestamp");
  }

  // ---- Pass 3: duplicate timestamps.
  int duplicates = 0;
  std::vector<std::size_t> firsts;  // First row of each timestamp.
  for (std::size_t i = 0; i < t.size();) {
    std::size_t j = i + 1;
    while (j < t.size() && t[j] == t[i]) ++j;
    if (j - i > 1 && strict) {
      return InvalidArgumentError("duplicate timestamp at data row " +
                                  std::to_string(i + 2));
    }
    duplicates += static_cast<int>(j - i - 1);
    // Repair averages the duplicates' usable cells per dimension into the
    // first; record-only keeps the first.
    for (std::size_t d = 0; repair && j - i > 1 && d < dims.size(); ++d) {
      double sum = 0.0;
      int n = 0;
      for (std::size_t k = i; k < j; ++k) {
        if (columns.classes[d][k] == CellClass::kOk) {
          sum += columns.values[d][k];
          ++n;
        }
      }
      if (n > 0) {
        columns.values[d][i] = sum / n;
        columns.classes[d][i] = CellClass::kOk;
      }
    }
    firsts.push_back(i);
    i = j;
  }
  if (duplicates > 0) {
    columns.Keep(firsts);
    gated.report.Add(DefectClass::kDuplicateTimestamp, duplicates,
                     /*repaired=*/true,
                     repair ? "duplicate samples averaged"
                            : "first of each duplicate kept");
  }

  // ---- Pass 4: cadence. The dominant interval is the median delta.
  std::int64_t interval = telemetry::kDmaIntervalSeconds;
  if (t.size() >= 2) {
    std::vector<double> deltas;
    deltas.reserve(t.size() - 1);
    for (std::size_t i = 1; i < t.size(); ++i) {
      deltas.push_back(t[i] - t[i - 1]);
    }
    std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                     deltas.end());
    const double median = deltas[deltas.size() / 2];
    if (!(median < kMaxCadenceSeconds)) return OffGridError(t.back());
    interval = std::max<std::int64_t>(1, std::llround(median));
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
  const double t0 = t.front();
  const double step = static_cast<double>(interval);
  int drift = 0;
  std::vector<std::size_t> slots(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double slot = std::max(0.0, std::round((t[i] - t0) / step));
    if (!(slot <= kMaxSlot)) return OffGridError(t[i]);
    const double off = std::abs(t[i] - (t0 + slot * step));
    if (off > options.cadence_drift_tolerance * step) {
      if (strict) {
        return InvalidArgumentError(
            "cadence drift at data row " + std::to_string(i + 1) +
            ": timestamp " + FormatDouble(t[i], 1) + " is off the " +
            std::to_string(interval) + "s grid");
      }
      ++drift;
    }
    slots[i] = static_cast<std::size_t>(slot);
  }
  if (drift > 0) {
    gated.report.Add(DefectClass::kCadenceDrift, drift, repair,
                     repair ? "timestamps snapped to the cadence grid"
                            : "off-grid timestamps recorded");
  }
  // Rows are sorted, so the missing slots are the runs between neighbours.
  int gap_slots = 0;
  std::size_t longest_gap = 0;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i] > slots[i - 1] + 1) {
      const std::size_t gap = slots[i] - slots[i - 1] - 1;
      gap_slots += static_cast<int>(gap);
      longest_gap = std::max(longest_gap, gap);
    }
  }

  // ---- Pass 5: build the aligned series.
  PerfTrace trace(interval);
  std::vector<ResourceDim> kept_dims;

  if (repair) {
    // Slot-indexed assembly: gaps and bad cells become missing slots, all
    // interpolated in one pass so Eq. 1 keeps every time point.
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

    const std::size_t length = slots.back() + 1;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      std::vector<double> values(length, kNan);
      std::vector<bool> ok(length, false);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (columns.classes[d][i] == CellClass::kOk) {
          values[slots[i]] = columns.values[d][i];
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
      std::vector<double>& values = columns.values[d];
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
  gated.report.samples_out = static_cast<int>(trace.num_samples());
  return FinishGate(std::move(gated), std::move(trace), kept_dims, options);
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
    report->Add(DefectClass::kMissingDimension,
                static_cast<int>(report->missing_dims.size()),
                /*repaired=*/false,
                "assessment narrowed to collected dimensions; missing: " +
                    DimNames(report->missing_dims));
  }
}

StatusOr<GatedTrace> GateTraceCsv(const CsvTable& table,
                                  const GateOptions& options) {
  TraceColumns columns;
  CsvFields fields(table.header().begin(), table.header().end());
  columns.SetHeader(fields, table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    fields.assign(table.row(r).begin(), table.row(r).end());
    columns.AddRow(fields);
  }
  return GateColumns(std::move(columns), options);
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

  return FinishGate(std::move(gated), std::move(cleaned), kept_dims, options);
}

StatusOr<GatedTrace> ReadTraceFileGated(const std::string& path,
                                        const GateOptions& options) {
  TraceColumns columns;
  {
    DOPPLER_TRACE_SPAN("telemetry.read");
    DOPPLER_ASSIGN_OR_RETURN(const std::string text, ReadTextFile(path));
    DOPPLER_RETURN_IF_ERROR(SplitCsv(
        text,
        [&](const CsvFields& header) {
          columns.SetHeader(header, static_cast<std::size_t>(std::count(
                                        text.begin(), text.end(), '\n')));
        },
        [&](const CsvFields& fields) { columns.AddRow(fields); }));
  }
  return GateColumns(std::move(columns), options);
}

}  // namespace doppler::quality
