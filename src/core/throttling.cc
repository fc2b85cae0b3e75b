#include "core/throttling.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "obs/metrics.h"
#include "stats/kde.h"
#include "stats/normal.h"
#include "util/aligned.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace doppler::core {

namespace {

using catalog::ResourceDim;
using catalog::ResourceVector;

// Hot path: one call per candidate SKU per curve. Counter pointers are
// resolved once so each evaluation costs a relaxed atomic add.
// `samples_scanned` must be the rows the evaluation ACTUALLY visited —
// charged after the scan, so early exits report the truth, not the worst
// case.
void CountEvaluation(std::size_t samples_scanned) {
  static obs::Counter* const kEvaluations =
      obs::DefaultMetrics().GetCounter("ppm.throttling_evaluations");
  static obs::Counter* const kSamples =
      obs::DefaultMetrics().GetCounter("ppm.samples_scanned");
  kEvaluations->Increment();
  kSamples->Increment(samples_scanned);
}

// Dimensions modelled by both the trace and the capacity vector.
StatusOr<std::vector<ResourceDim>> SharedDims(
    const telemetry::PerfTrace& trace, const ResourceVector& capacities) {
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  std::vector<ResourceDim> dims;
  for (ResourceDim dim : catalog::kAllResourceDims) {
    if (trace.Has(dim) && capacities.Has(dim)) dims.push_back(dim);
  }
  if (dims.empty()) {
    return InvalidArgumentError(
        "no resource dimension shared between trace and capacities");
  }
  return dims;
}

// Validates a moving-capacity query and returns the constant dimensions
// that take part (shared between trace and capacities, minus the moving
// dimension, whose constant entry — if any — is superseded by the series).
StatusOr<std::vector<ResourceDim>> MovingConstantDims(
    const telemetry::PerfTrace& trace, const ResourceVector& capacities,
    const MovingCapacity& moving) {
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  if (!trace.Has(moving.dim)) {
    return InvalidArgumentError(
        "trace does not model the moving-capacity dimension");
  }
  if (moving.capacity.size() != trace.num_samples()) {
    return InvalidArgumentError(
        "moving-capacity series length does not match the trace");
  }
  std::vector<ResourceDim> dims;
  for (ResourceDim dim : catalog::kAllResourceDims) {
    if (dim != moving.dim && trace.Has(dim) && capacities.Has(dim)) {
      dims.push_back(dim);
    }
  }
  return dims;
}

}  // namespace

StatusOr<double> ThrottlingEstimator::ProbabilityMoving(
    const telemetry::PerfTrace& trace, const catalog::ResourceVector& capacities,
    const MovingCapacity& moving) const {
  DOPPLER_ASSIGN_OR_RETURN(const std::vector<ResourceDim> const_dims,
                           MovingConstantDims(trace, capacities, moving));
  const std::size_t n = trace.num_samples();
  const std::vector<double>& moving_demand = trace.Values(moving.dim);
  const bool moving_inverted = catalog::IsInvertedDim(moving.dim);

  // Definitional row-major scan: a row is throttled when the moving
  // dimension exceeds its per-row limit or any constant dimension exceeds
  // its fixed limit.
  std::size_t throttled = 0;
  for (std::size_t t = 0; t < n; ++t) {
    bool any = moving_inverted ? moving_demand[t] < moving.capacity[t]
                               : moving_demand[t] > moving.capacity[t];
    for (std::size_t k = 0; k < const_dims.size() && !any; ++k) {
      any = catalog::ResourceVector::Exceeds(const_dims[k],
                                             trace.Values(const_dims[k])[t],
                                             capacities.Get(const_dims[k]));
    }
    throttled += any;
  }
  CountEvaluation((const_dims.size() + 1) * n);
  return static_cast<double>(throttled) / static_cast<double>(n);
}

StatusOr<double> NonParametricEstimator::Probability(
    const telemetry::PerfTrace& trace,
    const ResourceVector& capacities) const {
  DOPPLER_ASSIGN_OR_RETURN(std::vector<ResourceDim> dims,
                           SharedDims(trace, capacities));
  const std::size_t n = trace.num_samples();

  // Columnar union scan: instead of gathering every dimension per time
  // point (one cache line per dimension per row), sweep each contiguous
  // column once, marking rows throttled by ANY dimension so far. The
  // throttled-row count is identical to the row-major formulation — a row
  // is counted exactly once, by whichever column marks it first — so the
  // result is bit-for-bit the same at any scan order.
  const telemetry::DemandColumns matrix = trace.Columns(dims);

  const kernels::KernelOps& ops = kernels::ActiveKernels();

  // Single shared dimension: no mark buffer needed, pure count.
  if (matrix.num_columns == 1) {
    const double* const column = matrix.column(0);
    const double capacity = capacities.Get(matrix.dim(0));
    const std::size_t throttled = catalog::IsInvertedDim(matrix.dim(0))
                                      ? ops.count_below(column, n, capacity)
                                      : ops.count_above(column, n, capacity);
    CountEvaluation(n);
    return static_cast<double>(throttled) / static_cast<double>(n);
  }

  // Reused per thread so the hot loop never allocates after warm-up; each
  // worker of a parallel curve build gets its own buffer.
  thread_local AlignedVector<unsigned char> throttled_rows;
  throttled_rows.assign(n, 0);
  std::size_t throttled = 0;
  std::size_t columns_scanned = 0;
  for (std::size_t k = 0; k < matrix.num_columns; ++k) {
    const double* const column = matrix.column(k);
    const double capacity = capacities.Get(matrix.dim(k));
    // The mark kernel counts only NEWLY marked rows, so whichever column
    // marks a row first counts it — exactly the scalar loop's behaviour.
    throttled += catalog::IsInvertedDim(matrix.dim(k))
                     ? ops.mark_below(column, n, capacity,
                                      throttled_rows.data())
                     : ops.mark_above(column, n, capacity,
                                      throttled_rows.data());
    // Early-exit union test: once every row is throttled no further
    // dimension can change the count.
    ++columns_scanned;
    if (throttled == n) break;
  }
  // Charged after the loop so the early exit reports the rows actually
  // visited (each scanned column touches all n rows), not the worst-case
  // n·d the scan might have needed.
  CountEvaluation(columns_scanned * n);
  TrimScratch(throttled_rows);
  return static_cast<double>(throttled) / static_cast<double>(n);
}

StatusOr<const stats::GaussianKde*> KdeEstimator::FittedKde(
    ResourceDim dim) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<stats::GaussianKde>& slot =
      fitted_[static_cast<std::size_t>(static_cast<int>(dim))];
  if (!slot.has_value()) {
    // The cache's memoized sorted series IS the dimension's sample (same
    // multiset), so the fit — one copy, one stddev pass — happens once per
    // dimension instead of once per Probability call.
    DOPPLER_ASSIGN_OR_RETURN(stats::GaussianKde kde,
                             stats::GaussianKde::Fit(stats_->Sorted(dim)));
    slot = std::move(kde);
  }
  // Slots are write-once under the mutex and the array itself never moves,
  // so the pointer stays valid and safe to read after unlock.
  return &*slot;
}

StatusOr<double> KdeEstimator::Probability(
    const telemetry::PerfTrace& trace,
    const ResourceVector& capacities) const {
  DOPPLER_ASSIGN_OR_RETURN(std::vector<ResourceDim> dims,
                           SharedDims(trace, capacities));
  // Bound-cache fast path only applies to the cache's own trace object;
  // any other trace (bootstrap resamples, tests) takes the per-call fit.
  const bool bound = stats_ != nullptr && &stats_->trace() == &trace;
  double none_exceeds = 1.0;
  for (ResourceDim dim : dims) {
    std::optional<stats::GaussianKde> local;
    const stats::GaussianKde* kde = nullptr;
    if (bound) {
      DOPPLER_ASSIGN_OR_RETURN(kde, FittedKde(dim));
    } else {
      DOPPLER_ASSIGN_OR_RETURN(stats::GaussianKde fitted,
                               stats::GaussianKde::Fit(trace.Values(dim)));
      local = std::move(fitted);
      kde = &*local;
    }
    const double cap = capacities.Get(dim);
    // Inverted dimensions throttle when demand falls BELOW capacity.
    const double exceed =
        catalog::IsInvertedDim(dim) ? kde->Cdf(cap) : kde->Exceedance(cap);
    none_exceeds *= 1.0 - exceed;
  }
  // Every dimension's kernel CDF sums over all n sample points.
  CountEvaluation(dims.size() * trace.num_samples());
  return 1.0 - none_exceeds;
}

namespace {

// Cholesky factorisation of a symmetric positive-definite matrix with a
// diagonal jitter fallback: returns L with A ~= L L^T.
std::vector<std::vector<double>> Cholesky(
    std::vector<std::vector<double>> a) {
  const std::size_t n = a.size();
  // Jitter until the factorisation goes through (correlation matrices from
  // rank transforms are occasionally semi-definite).
  for (double jitter = 0.0; jitter < 0.2; jitter = jitter * 2.0 + 1e-6) {
    std::vector<std::vector<double>> l(n, std::vector<double>(n, 0.0));
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = a[i][j] + (i == j ? jitter : 0.0);
        for (std::size_t k = 0; k < j; ++k) sum -= l[i][k] * l[j][k];
        if (i == j) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          l[i][j] = std::sqrt(sum);
        } else {
          l[i][j] = sum / l[j][j];
        }
      }
    }
    if (ok) return l;
  }
  // Last resort: identity (independent sampling).
  std::vector<std::vector<double>> identity(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) identity[i][i] = 1.0;
  return identity;
}

}  // namespace

StatusOr<double> GaussianCopulaEstimator::Probability(
    const telemetry::PerfTrace& trace,
    const ResourceVector& capacities) const {
  DOPPLER_ASSIGN_OR_RETURN(std::vector<ResourceDim> dims,
                           SharedDims(trace, capacities));
  const std::size_t d = dims.size();
  const std::size_t n = trace.num_samples();
  // The rank transform reads every dimension's full column.
  CountEvaluation(d * n);

  // Rank-transform each marginal to normal scores; keep the sorted sample
  // as the empirical quantile function.
  std::vector<std::vector<double>> sorted(d);
  std::vector<std::vector<double>> scores(d, std::vector<double>(n));
  for (std::size_t k = 0; k < d; ++k) {
    const std::vector<double>& values = trace.Values(dims[k]);
    sorted[k] = values;
    std::sort(sorted[k].begin(), sorted[k].end());
    // Average ranks via position in the sorted array (ties get adjacent
    // ranks, adequate for correlation estimation).
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return values[a] < values[b];
    });
    for (std::size_t r = 0; r < n; ++r) {
      scores[k][order[r]] = stats::NormalQuantile(
          (static_cast<double>(r) + 1.0) / (static_cast<double>(n) + 1.0));
    }
  }

  // Correlation matrix of the normal scores.
  std::vector<std::vector<double>> correlation(d, std::vector<double>(d, 0.0));
  for (std::size_t i = 0; i < d; ++i) {
    correlation[i][i] = 1.0;
    for (std::size_t j = i + 1; j < d; ++j) {
      double cov = 0.0, var_i = 0.0, var_j = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        cov += scores[i][t] * scores[j][t];
        var_i += scores[i][t] * scores[i][t];
        var_j += scores[j][t] * scores[j][t];
      }
      const double denom = std::sqrt(var_i * var_j);
      const double rho = denom > 0.0 ? std::clamp(cov / denom, -0.999, 0.999)
                                     : 0.0;
      correlation[i][j] = correlation[j][i] = rho;
    }
  }
  const std::vector<std::vector<double>> chol = Cholesky(correlation);

  // Monte Carlo over the copula: correlated normals -> uniforms ->
  // empirical quantiles -> exceedance test.
  Rng rng(seed_);
  const int m = std::max(100, samples_);
  int exceed_count = 0;
  for (int s = 0; s < m; ++s) {
    // Independent normals, then correlate through L.
    std::vector<double> raw(d);
    for (std::size_t k = 0; k < d; ++k) raw[k] = rng.Normal();
    bool any = false;
    for (std::size_t k = 0; k < d && !any; ++k) {
      double zk = 0.0;
      for (std::size_t j = 0; j <= k; ++j) zk += chol[k][j] * raw[j];
      const double u = stats::NormalCdf(zk);
      // Empirical quantile: the u-th order statistic.
      const std::size_t idx = std::min(
          n - 1, static_cast<std::size_t>(u * static_cast<double>(n)));
      const double value = sorted[k][idx];
      any = ResourceVector::Exceeds(dims[k], value, capacities.Get(dims[k]));
    }
    exceed_count += any;
  }
  return static_cast<double>(exceed_count) / static_cast<double>(m);
}

}  // namespace doppler::core
