#ifndef DOPPLER_OBS_METRICS_H_
#define DOPPLER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace doppler {
class JsonWriter;
}

namespace doppler::obs {

/// Monotonically increasing event count. Increment is a single relaxed
/// atomic add, safe to place on hot paths (cache the pointer returned by
/// MetricsRegistry::GetCounter in a function-local static so the name
/// lookup happens once, not per event).
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (queue depths, config knobs, sizes). Set is a store;
/// Add is a compare-exchange loop (no C++20 atomic fetch_add dependence so
/// older libstdc++ builds stay lock-free too).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration and
/// never change, so Observe is a branch-free-ish scan plus two relaxed
/// atomic adds — no locks on the hot path. Bucket i counts observations
/// with value <= bounds[i]; one implicit overflow bucket (+Inf) follows.
class Histogram {
 public:
  /// `bounds` must be strictly increasing; an empty list leaves only the
  /// +Inf bucket.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Number of buckets including the +Inf overflow bucket.
  std::size_t num_buckets() const { return buckets_.size(); }
  /// Per-bucket (non-cumulative) count; index num_buckets()-1 is +Inf.
  std::uint64_t BucketCount(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Interpolated quantile estimate over the live bucket counts (see
  /// QuantileFromBuckets for the estimation contract). 0 when empty.
  double Quantile(double q) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  /// Sized once in the constructor; atomics make the vector immovable and
  /// non-copyable, which is fine — histograms live behind stable pointers
  /// owned by the registry.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Sanitises a dotted doppler metric name to a Prometheus exposition name
/// under the `doppler_` prefix: runs of characters outside [a-zA-Z0-9_]
/// collapse to one underscore, trailing separators drop. Exposed so the
/// windowed snapshotter renders the same names as RenderPrometheusText.
std::string PrometheusMetricName(const std::string& name);

/// Default latency bucket bounds in seconds: 1 µs to 10 s, roughly
/// 1-2.5-5 per decade — wide enough for a per-SKU probability scan and a
/// full fleet assessment on the same scale.
const std::vector<double>& LatencyBucketBounds();

/// Interpolated quantile estimate from fixed-bucket histogram data.
/// `buckets` holds per-bucket (non-cumulative) counts, one more entry than
/// `bounds` (the trailing +Inf overflow bucket); `count` is their sum.
/// The rank-q observation (rank = ceil(q * count), 1-based over the sorted
/// samples) is located in its bucket and linearly interpolated between the
/// bucket's edges, so the estimate is off from the exact sorted-sample
/// quantile by at most one bucket width (the documented error bound,
/// DESIGN.md §12). The +Inf bucket cannot be interpolated: ranks landing
/// there clamp to the last finite bound. Returns 0 when count == 0.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& buckets,
                           std::uint64_t count, double q);

/// Fraction of observations with value <= `threshold`, linearly
/// interpolating inside the bucket that straddles the threshold (the SLO
/// budget estimator: "what fraction of requests met --slo-ms"). Overflow
/// (+Inf) observations always count as over the threshold. Returns -1 when
/// count == 0 (no traffic — distinct from 0, every request over budget).
double FractionUnderThreshold(const std::vector<double>& bounds,
                              const std::vector<std::uint64_t>& buckets,
                              std::uint64_t count, double threshold);

/// Thread-safe name -> metric registry. Registration (first Get* for a
/// name) takes a mutex; the returned pointers are stable for the registry's
/// lifetime and all operations on them are lock-free atomics. Names use
/// the dotted `stage.substage` scheme ("ppm.skus_evaluated",
/// "latency.pipeline.preprocess").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Histogram with the default latency bounds.
  Histogram* GetHistogram(const std::string& name);
  /// Histogram with explicit bounds; the bounds are fixed by whichever call
  /// registers the name first.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// Lookup without registration; nullptr when the name is unknown.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Zeroes every metric's value. Registered objects (and pointers to
  /// them) stay valid — this resets data, not registration.
  void ResetAll();

  /// Point-in-time plain-data copy of every registered metric, the input
  /// the windowed snapshotter (obs/snapshot.h) diffs between ticks.
  /// Individual values are relaxed atomic reads — the copy is not a
  /// cross-metric atomic cut, which windowed diffing tolerates (each
  /// metric's delta is still exact between two of ITS OWN reads).
  struct RegistrySnapshot {
    struct HistogramData {
      std::vector<double> bounds;
      /// Per-bucket (non-cumulative) counts; one more than bounds (+Inf).
      std::vector<std::uint64_t> buckets;
      std::uint64_t count = 0;
      double sum = 0.0;
    };
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
  };
  RegistrySnapshot Snapshot() const;

  /// Prometheus text exposition: dotted names are sanitised to
  /// `doppler_stage_substage`, counters gain the `_total` suffix, histogram
  /// buckets render cumulatively with `le` labels.
  std::string RenderPrometheusText() const;

  /// Same data through the shared JSON writer:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  void WriteJson(JsonWriter* json) const;
  std::string RenderJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every DOPPLER_TRACE_SPAN and instrumentation
/// point records into. Never destroyed (leaked on purpose) so metrics from
/// static-destruction-order territory stay safe.
MetricsRegistry& DefaultMetrics();

}  // namespace doppler::obs

#endif  // DOPPLER_OBS_METRICS_H_
