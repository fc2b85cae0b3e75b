#ifndef DOPPLER_TELEMETRY_TRACE_IO_H_
#define DOPPLER_TELEMETRY_TRACE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/perf_trace.h"
#include "util/csv.h"
#include "util/statusor.h"

namespace doppler::telemetry {

/// Serialises a trace to CSV: a `t_seconds` column followed by one column
/// per present dimension, named by ResourceDimName. The on-disk format the
/// DMA appliance stages locally before the recommendation pipeline runs
/// (paper §2: counters are "first stored locally on the target database").
CsvTable TraceToCsv(const PerfTrace& trace);

/// Parses a trace from the TraceToCsv format. The cadence is inferred from
/// the first two `t_seconds` rows (DMA default when only one row exists).
/// Unknown columns are ignored; malformed numbers fail with
/// INVALID_ARGUMENT.
StatusOr<PerfTrace> TraceFromCsv(const CsvTable& table);

/// Names a cell in a strict reader's messages: "data row 3, column 'cpu'"
/// for 0-based `row` 2, prefixed by `source` when it is not empty.
std::string CellName(std::string_view source, std::size_t row,
                     std::string_view column);

/// The strict readers' cell rule: ParseCell's value, or INVALID_ARGUMENT
/// quoting the cell when it is malformed or non-finite.
StatusOr<double> ParseStrictCell(std::string_view text,
                                 std::string_view source, std::size_t row,
                                 std::string_view column);

/// The strict readers' timestamp rule, shared by TraceFromCsv and
/// sources::TraceFromForeignCsv: every cell of `time_col` passes
/// ParseStrictCell and exceeds the one before, and the cadence is the
/// first delta in whole seconds, which must be at least 1 and fit in int64
/// (the DMA cadence when there is one row). An order fault reads
/// "<rule> (violated at <cell>)", a cadence fault reads `rule`.
StatusOr<std::int64_t> StrictCadence(const CsvTable& table,
                                     std::size_t time_col,
                                     std::string_view source,
                                     const std::string& rule);

/// Convenience wrappers over CsvTable's file IO.
Status WriteTraceFile(const PerfTrace& trace, const std::string& path);
StatusOr<PerfTrace> ReadTraceFile(const std::string& path);

}  // namespace doppler::telemetry

#endif  // DOPPLER_TELEMETRY_TRACE_IO_H_
