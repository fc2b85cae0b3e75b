#include "sources/counter_mapping.h"

#include <map>

#include "telemetry/trace_io.h"

namespace doppler::sources {

StatusOr<telemetry::PerfTrace> TraceFromForeignCsv(
    const CsvTable& table, const CounterMapping& mapping) {
  if (mapping.rules.empty()) {
    return InvalidArgumentError("counter mapping has no rules");
  }
  DOPPLER_ASSIGN_OR_RETURN(std::size_t time_col,
                           table.ColumnIndex(mapping.time_column));
  if (table.num_rows() == 0) {
    return InvalidArgumentError(mapping.source_name + " export is empty");
  }

  // Every timestamp must increase by a whole-second cadence (DMA default
  // cadence for single-row exports; otherwise the first delta).
  DOPPLER_ASSIGN_OR_RETURN(
      const std::int64_t interval,
      telemetry::StrictCadence(table, time_col, mapping.source_name,
                               mapping.source_name +
                                   ": timestamps must increase"));

  // Accumulate rule columns into per-dimension series.
  std::map<catalog::ResourceDim, std::vector<double>> series;
  for (const CounterRule& rule : mapping.rules) {
    DOPPLER_ASSIGN_OR_RETURN(std::size_t column,
                             table.ColumnIndex(rule.column));
    auto& values = series[rule.dim];
    if (values.empty()) values.assign(table.num_rows(), 0.0);
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      // Foreign exports carry physical counters: finite and non-negative.
      DOPPLER_ASSIGN_OR_RETURN(
          const double v, telemetry::ParseStrictCell(table.row(r)[column],
                                                     mapping.source_name, r,
                                                     rule.column));
      if (v < 0.0) {
        return InvalidArgumentError(
            "negative counter at " +
            telemetry::CellName(mapping.source_name, r, rule.column));
      }
      values[r] += v * rule.unit_scale;
    }
  }

  telemetry::PerfTrace trace(interval);
  trace.set_id(mapping.source_name);
  for (auto& [dim, values] : series) {
    DOPPLER_RETURN_IF_ERROR(trace.SetSeries(dim, std::move(values)));
  }
  return trace;
}

}  // namespace doppler::sources
