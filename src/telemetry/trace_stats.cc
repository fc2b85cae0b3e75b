#include "telemetry/trace_stats.h"

#include <algorithm>

#include "stats/descriptive.h"

namespace doppler::telemetry {

const TraceStatsCache::DimEntry& TraceStatsCache::Entry(
    catalog::ResourceDim dim) const {
  std::lock_guard<std::mutex> lock(mu_);
  DimEntry& entry = entries_[Index(dim)];
  // A generation mismatch means the trace was mutated since the entry was
  // built: rebuild in place (the vectors are refilled, so references
  // handed out before the mutation stay valid and see fresh data) instead
  // of serving stale sorted order.
  if (entry.built && entry.generation == trace_->generation()) return entry;
  entry.sorted.clear();
  entry.mean = entry.stddev = entry.min = entry.max = 0.0;
  if (trace_->Has(dim)) {
    const std::vector<double>& values = trace_->Values(dim);
    // One sort per dimension. Stable, so values that compare equal (-0.0
    // and +0.0 included) keep their row order.
    entry.sorted.assign(values.begin(), values.end());
    std::stable_sort(entry.sorted.begin(), entry.sorted.end());
    entry.mean = stats::Mean(values);
    entry.stddev = stats::StdDev(values);
    // Sorted extremes match stats::Min/Max on non-empty input.
    entry.min = entry.sorted.empty() ? 0.0 : entry.sorted.front();
    entry.max = entry.sorted.empty() ? 0.0 : entry.sorted.back();
  }
  entry.built = true;
  entry.generation = trace_->generation();
  return entry;
}

const std::vector<double>& TraceStatsCache::Sorted(
    catalog::ResourceDim dim) const {
  return Entry(dim).sorted;
}

double TraceStatsCache::Quantile(catalog::ResourceDim dim, double q) const {
  return stats::QuantileFromSorted(Entry(dim).sorted, q);
}

double TraceStatsCache::Mean(catalog::ResourceDim dim) const {
  return Entry(dim).mean;
}

double TraceStatsCache::StdDev(catalog::ResourceDim dim) const {
  return Entry(dim).stddev;
}

double TraceStatsCache::Min(catalog::ResourceDim dim) const {
  return Entry(dim).min;
}

double TraceStatsCache::Max(catalog::ResourceDim dim) const {
  return Entry(dim).max;
}

}  // namespace doppler::telemetry
