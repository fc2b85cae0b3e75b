#ifndef DOPPLER_QUALITY_QUALITY_GATE_H_
#define DOPPLER_QUALITY_QUALITY_GATE_H_

#include <string>
#include <vector>

#include "quality/quality_report.h"
#include "telemetry/perf_trace.h"
#include "util/csv.h"
#include "util/statusor.h"

namespace doppler::quality {

/// Tuning knobs for the telemetry quality gate.
struct GateOptions {
  QualityPolicy policy = QualityPolicy::kRepair;

  /// A timestamp further than this fraction of the cadence from its grid
  /// slot counts as cadence drift (and is snapped under kRepair).
  double cadence_drift_tolerance = 0.02;

  /// Longest gap (in missing sample slots) the gate will bridge by linear
  /// interpolation; longer collector outages are rejected with
  /// FAILED_PRECONDITION even under kRepair — inventing eight-plus hours
  /// of counters would bias Eq. 1 worse than refusing to assess.
  std::size_t max_gap_intervals = 48;

  /// Minimum samples the gated trace must retain.
  std::size_t min_samples = 2;

  /// Nominal collector cadence. When the median inter-sample delta lands
  /// within 10% of this (jittered timestamps pull it slightly off-grid),
  /// the gate snaps the inferred cadence back to the nominal value so the
  /// repaired trace stays resampleable downstream. 0 disables snapping.
  std::int64_t canonical_interval_seconds = telemetry::kDmaIntervalSeconds;

  /// Profiling dimensions the assessment expects (e.g.
  /// workload::ProfilingDims(deployment)). Dimensions absent from the
  /// trace are recorded as kMissingDimension and trigger the degraded-mode
  /// assessment; empty = skip the check.
  std::vector<catalog::ResourceDim> expected_dims;
};

/// A trace that passed the gate, plus the record of everything the gate
/// found and did.
struct GatedTrace {
  telemetry::PerfTrace trace;
  TraceQualityReport report;
};

/// Runs the full quality gate on raw collector CSV rows (a table with a
/// t_seconds column plus resource columns, as ReadTraceFile consumes).
/// Detects and — under kRepair — fixes: malformed/NaN/Inf/negative cells,
/// out-of-order and duplicate timestamps, cadence drift, gaps (linear
/// interpolation keeps Eq. 1's "fraction of time points" denominator
/// honest), dead counters, and missing expected dimensions. kStrict
/// returns a typed Status (with row context) on the first defect; however
/// gates are never silent: every intervention lands in the report.
StatusOr<GatedTrace> GateTraceCsv(const CsvTable& table,
                                  const GateOptions& options);

/// Gate for traces that are already aligned (no timestamp column survives
/// inside a PerfTrace): cell-level defects, dead counters and missing
/// dimensions only. This is the layer DataPreprocessingModule runs on
/// every database trace handed to the pipeline.
StatusOr<GatedTrace> GateTrace(const telemetry::PerfTrace& trace,
                               const GateOptions& options);

/// Reads a trace CSV file through the gate (the CLI's ingestion path). The
/// read is traced as `telemetry.read`, the gate as `quality.gate_csv`.
StatusOr<GatedTrace> ReadTraceFileGated(const std::string& path,
                                        const GateOptions& options);

/// Fills the degraded-mode fields of `report` from the dimensions present
/// after gating versus the expected profiling dimensions: the assessment
/// narrows the joint demand to what was collected and flags the reduced
/// confidence (confidence_penalty = missing / expected).
void AssessDegradedMode(const std::vector<catalog::ResourceDim>& present,
                        const std::vector<catalog::ResourceDim>& expected,
                        TraceQualityReport* report);

}  // namespace doppler::quality

#endif  // DOPPLER_QUALITY_QUALITY_GATE_H_
