#ifndef DOPPLER_TELEMETRY_TRACE_STATS_H_
#define DOPPLER_TELEMETRY_TRACE_STATS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "catalog/resource.h"
#include "telemetry/perf_trace.h"

namespace doppler::telemetry {

/// Memoized per-(trace, dimension) order statistics: one sort per dimension
/// amortised across every consumer of the same assessment — the baseline
/// recommender's scalar quantiles, the thresholding profiler's max/stddev
/// window, and the confidence resampler's per-rerun profiling all read the
/// same sorted state instead of re-deriving it.
///
/// The cache BORROWS the trace and snapshots nothing up front; entries are
/// built lazily on first access, under a mutex, so concurrent workers of a
/// parallel curve build or fleet assessment may share one cache safely.
///
/// Invalidation contract (DESIGN.md §7): a trace must not be mutated while a
/// cache over it is being read CONCURRENTLY. Sequential mutation is tolerated:
/// every entry records the trace generation it was built against
/// (PerfTrace::generation()) and rebuilds on the next access after the trace
/// moved on, so a mutated trace invalidates the memo instead of serving stale
/// sorted order. References handed out earlier stay valid (the entry's vectors
/// are refilled in place) and read the fresh contents. Every value is computed
/// by the same stats:: routines the uncached paths use, so cached and uncached
/// results are bit-identical.
class TraceStatsCache {
 public:
  /// Borrows `trace`, which must outlive the cache and stay unmutated.
  explicit TraceStatsCache(const PerfTrace& trace) : trace_(&trace) {}

  TraceStatsCache(const TraceStatsCache&) = delete;
  TraceStatsCache& operator=(const TraceStatsCache&) = delete;

  /// Ascending-sorted copy of the dimension's series; empty when the
  /// dimension is absent from the trace. Equal values keep their row order
  /// (a stable sort), so -0.0 and +0.0 land in a fixed order and the
  /// vector is a deterministic function of the series alone.
  const std::vector<double>& Sorted(catalog::ResourceDim dim) const;

  /// R-7 quantile over the memoized sorted series (0 when absent).
  double Quantile(catalog::ResourceDim dim, double q) const;

  double Mean(catalog::ResourceDim dim) const;
  double StdDev(catalog::ResourceDim dim) const;
  double Min(catalog::ResourceDim dim) const;
  double Max(catalog::ResourceDim dim) const;

 private:
  struct DimEntry {
    bool built = false;
    /// PerfTrace::generation() at build time; a mismatch on access means
    /// the trace was mutated and the entry rebuilds before serving.
    std::uint64_t generation = 0;
    std::vector<double> sorted;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Builds (first call) and returns the entry for one dimension.
  const DimEntry& Entry(catalog::ResourceDim dim) const;

  static constexpr std::size_t Index(catalog::ResourceDim dim) {
    return static_cast<std::size_t>(static_cast<int>(dim));
  }

  const PerfTrace* trace_;
  mutable std::mutex mu_;
  mutable std::array<DimEntry, catalog::kNumResourceDims> entries_;
};

}  // namespace doppler::telemetry

#endif  // DOPPLER_TELEMETRY_TRACE_STATS_H_
