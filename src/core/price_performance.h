#ifndef DOPPLER_CORE_PRICE_PERFORMANCE_H_
#define DOPPLER_CORE_PRICE_PERFORMANCE_H_

#include <string>
#include <vector>

#include "catalog/compiled_catalog.h"
#include "catalog/pricing.h"
#include "catalog/sku.h"
#include "core/throttling.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::exec {
class ThreadPool;
}

namespace doppler::core {

/// A candidate for curve building on the compiled-snapshot path: borrows a
/// CompiledEntry (valid for the snapshot's lifetime), plus an optional MI
/// file-layout IOPS override (paper §3.2 Step 2: the GP MI IOPS limit is
/// the sum of the per-file storage-tier limits, not the SKU record's
/// number). Negative `iops_limit` means "use the memoized capacities".
struct CompiledCandidateRef {
  const catalog::CompiledEntry* entry = nullptr;
  double iops_limit = -1.0;
};

/// One point of a price-performance curve.
struct PricePerformancePoint {
  catalog::Sku sku;
  double monthly_price = 0.0;
  /// Raw estimated throttling probability for this SKU.
  double throttling_probability = 0.0;
  /// Monotone-enforced performance (fraction of resource needs satisfied):
  /// non-decreasing along the price axis (paper §3.2: "we enforce
  /// monotonicity ... so that customers cannot select SKUs that are more
  /// expensive and less performant").
  double performance = 0.0;

  /// Monotone-enforced throttling probability (1 - performance).
  double MonotoneProbability() const { return 1.0 - performance; }
};

/// Curve shape classes (paper §5.1 / Fig. 8).
enum class CurveShape {
  kFlat,     ///< Every relevant SKU satisfies ~100% of needs.
  kSimple,   ///< SKUs split between ~0% and ~100%; the cheapest 100% wins.
  kComplex,  ///< A genuine ranking across intermediate probabilities.
};

const char* CurveShapeName(CurveShape shape);

/// The personalised rank of relevant SKUs: each candidate priced through
/// the billing interface and scored by its estimated throttling
/// probability, sorted by monthly price (paper §3.2, Fig. 4b).
class PricePerformanceCurve {
 public:
  /// Builds the curve for `trace` over a whole compiled deployment view:
  /// reads the memoized monthly prices and capacity vectors, performs no
  /// catalog copy and — because compiled entries are already in (billed
  /// price, id) order — no per-request sort unless the view's target
  /// repriced a candidate against the trace (TargetSpec::reprice_for_trace,
  /// e.g. usage-billed serverless SKUs). Fails when the candidate list or
  /// trace is empty, or with the error of the first failing candidate in
  /// candidate order. Every candidate is scored by one
  /// ThrottlingEstimator::Probability call; with a non-null `executor`
  /// candidates are partitioned across the pool (each one is scored into
  /// its own slot by index, so the result is bit-identical to the serial
  /// path at any thread count).
  static StatusOr<PricePerformanceCurve> Build(
      const telemetry::PerfTrace& trace, catalog::CompiledView candidates,
      const catalog::PricingService& pricing,
      const ThrottlingEstimator& estimator,
      exec::ThreadPool* executor = nullptr);

  /// Compiled-snapshot path over a filtered subset (the MI route, where
  /// each candidate carries a layout-derived IOPS override). `candidates`
  /// must preserve the compiled view's relative order. `target` supplies
  /// the per-trace repricing hook (nullptr = no repricing).
  static StatusOr<PricePerformanceCurve> Build(
      const telemetry::PerfTrace& trace,
      const std::vector<CompiledCandidateRef>& candidates,
      const catalog::PricingService& pricing,
      const ThrottlingEstimator& estimator,
      exec::ThreadPool* executor = nullptr,
      const catalog::TargetSpec* target = nullptr);

  /// Points ordered by ascending monthly price.
  const std::vector<PricePerformancePoint>& points() const { return points_; }

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  /// Shape classification: flat when every performance is >= 1 - epsilon;
  /// simple when every performance is outside (epsilon, 1 - epsilon); else
  /// complex.
  CurveShape Classify(double epsilon = 0.01) const;

  /// Cheapest point with performance >= 1 - epsilon; NOT_FOUND when no SKU
  /// fully satisfies the workload.
  StatusOr<PricePerformancePoint> CheapestFullySatisfying(
      double epsilon = 0.01) const;

  /// The point implementing paper Eqs. 4-6: among points whose monotone
  /// throttling probability is <= target, the one closest to the target
  /// (ties to the cheaper). Falls back to the lowest-probability point
  /// when nothing is below the target.
  StatusOr<PricePerformancePoint> ClosestBelowTarget(double target) const;

  /// Point for a given SKU id; NOT_FOUND when the SKU is not a candidate.
  StatusOr<PricePerformancePoint> FindSku(const std::string& sku_id) const;

  /// Index of a SKU id in price order; NOT_FOUND when absent.
  StatusOr<std::size_t> IndexOfSku(const std::string& sku_id) const;

  /// Monthly prices / performances in price order (for plotting).
  std::vector<double> Prices() const;
  std::vector<double> Performances() const;

 private:
  // Internal accessor unifying the two compiled candidate sources (whole
  // view vs. filtered ref list); defined in the .cc.
  struct CompiledSpan;
  static StatusOr<PricePerformanceCurve> BuildCompiled(
      const telemetry::PerfTrace& trace, const CompiledSpan& span,
      const catalog::PricingService& pricing,
      const ThrottlingEstimator& estimator, exec::ThreadPool* executor);

  std::vector<PricePerformancePoint> points_;
};

}  // namespace doppler::core

#endif  // DOPPLER_CORE_PRICE_PERFORMANCE_H_
