#ifndef DOPPLER_CORE_THROTTLING_H_
#define DOPPLER_CORE_THROTTLING_H_

#include <cstdint>
#include <vector>

#include "catalog/resource.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::core {

/// Scratch-lifetime policy of the throttling scan (DESIGN.md §9): the
/// per-thread mark buffer is reused across evaluations so the hot path
/// never allocates after warm-up, but one oversized trace must not pin its
/// high-water mark for the lifetime of the thread. After each use, a buffer
/// whose capacity exceeds this bound is released back to the allocator.
/// Steady-state DMA traces sit far below it (a 30-day trace is ~4.3k rows,
/// ~4 KiB of scan marks), so the trim only ever fires after an outlier
/// trace.
inline constexpr std::size_t kScratchRetainBytes = std::size_t{1} << 20;

/// Applies the policy above to one scratch vector: keep the buffer when its
/// footprint is within kScratchRetainBytes, release it otherwise.
template <typename T>
void TrimScratch(std::vector<T>& scratch) {
  if (scratch.capacity() * sizeof(T) > kScratchRetainBytes) {
    scratch = std::vector<T>();
  }
}

/// A per-row capacity series for ONE dimension: capacity[t] is the limit in
/// force at the trace's t-th sample. This is how serverless autoscale enters
/// paper Eq. 1 — the provisioned capacity R_cpu becomes a function of time
/// (the simulated autoscaler lags demand; core/autoscale.h), so the
/// exceedance test for that dimension compares row against row instead of
/// row against a constant.
struct MovingCapacity {
  catalog::ResourceDim dim = catalog::ResourceDim::kCpu;
  /// One entry per trace sample, same row order as the trace columns.
  std::vector<double> capacity;
};

/// Estimates the probability that a workload would hit resource throttling
/// on a target with the given capacities (paper Eq. 1):
///
///   P_n(SKU_i) = P(r_cpu > R_cpu  U  r_ram > R_ram  U ... )
///
/// with the IO-latency dimension inverted (the workload is throttled when
/// the target cannot deliver latency as low as the workload needs). Only
/// dimensions present in BOTH the trace and the capacity vector take part.
class ThrottlingEstimator {
 public:
  virtual ~ThrottlingEstimator() = default;

  /// P(any modelled dimension exceeds capacity) in [0, 1]. Fails with
  /// INVALID_ARGUMENT on an empty trace or when no dimension is shared
  /// between trace and capacities.
  virtual StatusOr<double> Probability(
      const telemetry::PerfTrace& trace,
      const catalog::ResourceVector& capacities) const = 0;

  /// Paper Eq. 1 with ONE dimension's capacity a function of time (the
  /// serverless autoscale extension): P(any dimension exceeds its limit)
  /// where `moving.dim`'s limit at row t is `moving.capacity[t]` and every
  /// other dimension keeps its constant limit from `capacities` (a constant
  /// entry for `moving.dim`, if present, is superseded by the series).
  /// Evaluated by the definitional row-major scan, for every estimator.
  /// Fails with INVALID_ARGUMENT when the series length differs from the
  /// trace, the trace lacks `moving.dim`, or the trace is empty.
  StatusOr<double> ProbabilityMoving(
      const telemetry::PerfTrace& trace,
      const catalog::ResourceVector& capacities,
      const MovingCapacity& moving) const;

  /// Human-readable estimator name for benchmark output.
  virtual const char* name() const = 0;
};

/// The production estimator (paper §3.2, "non-parametric multi-variate"):
/// the joint frequency, over time points, of any dimension exceeding its
/// capacity. Exact with respect to the empirical joint distribution, O(n·d)
/// per SKU, and the reason Doppler scales to full catalogs.
///
/// Implemented as a columnar kernel: the trace's contiguous per-dimension
/// columns (PerfTrace::Columns) are swept one at a time with an early-exit
/// union test, which keeps the scan cache-friendly and allocation-free on
/// the hot path. It is the only Eq. 1 evaluator: curve builds, both
/// recommenders, the MI route and the confidence resampler all call it once
/// per candidate (DESIGN.md §9). Thread-safe: concurrent Probability calls
/// on shared traces are the unit of work the parallel curve build fans out.
class NonParametricEstimator : public ThrottlingEstimator {
 public:
  StatusOr<double> Probability(
      const telemetry::PerfTrace& trace,
      const catalog::ResourceVector& capacities) const override;

  const char* name() const override { return "non-parametric"; }
};

/// The smoothed alternative the paper evaluated and rejected on runtime
/// grounds (§3.2, "Gaussian smoothing"): a Gaussian KDE per dimension with
/// Silverman bandwidth; the joint exceedance combines the per-dimension
/// exceedances under an independence approximation,
/// P(any) = 1 - prod_d (1 - e_d).
///
/// Every call copies each dimension out of the trace and re-fits its KDE —
/// the per-call cost the paper rejected, kept so the bench_perf_engine
/// ablation quantifies it. Stateless, so concurrent calls are safe.
class KdeEstimator : public ThrottlingEstimator {
 public:
  StatusOr<double> Probability(
      const telemetry::PerfTrace& trace,
      const catalog::ResourceVector& capacities) const override;
  const char* name() const override { return "gaussian-kde"; }
};

/// The copula-family alternative the paper cites (§3.2, "multivariate
/// kernel density estimation based on vine copulas"): a Gaussian copula
/// over empirical marginals. Marginals are rank-transformed to normal
/// scores, their correlation matrix is estimated, and the joint exceedance
/// is evaluated by Monte Carlo: sample correlated normals, map back
/// through the empirical quantile functions, count samples exceeding any
/// capacity. Unlike KdeEstimator's independence approximation this models
/// cross-dimension dependence, at a further runtime cost — which is the
/// paper's reason for rejecting the family in production.
class GaussianCopulaEstimator : public ThrottlingEstimator {
 public:
  /// `monte_carlo_samples` trades accuracy for runtime; `seed` fixes the
  /// sampling so estimates are reproducible.
  explicit GaussianCopulaEstimator(int monte_carlo_samples = 4000,
                                   std::uint64_t seed = 97)
      : samples_(monte_carlo_samples), seed_(seed) {}

  StatusOr<double> Probability(
      const telemetry::PerfTrace& trace,
      const catalog::ResourceVector& capacities) const override;
  const char* name() const override { return "gaussian-copula"; }

 private:
  int samples_;
  std::uint64_t seed_;
};

}  // namespace doppler::core

#endif  // DOPPLER_CORE_THROTTLING_H_
