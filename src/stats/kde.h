#ifndef DOPPLER_STATS_KDE_H_
#define DOPPLER_STATS_KDE_H_

#include <utility>
#include <vector>

#include "util/statusor.h"

namespace doppler::stats {

/// Univariate Gaussian kernel density estimator with Silverman's
/// rule-of-thumb bandwidth. This is the "Gaussian smoothing" alternative
/// the paper considered (and rejected on runtime grounds, §3.2) for
/// estimating throttling probabilities; core/throttling.h wraps it into the
/// KdeEstimator used by the ablation benchmarks. Evaluation is one scalar
/// loop over the sample: O(n) per query, summed in sample order.
class GaussianKde {
 public:
  /// Fits the KDE; `sample` must be non-empty. An explicit bandwidth <= 0
  /// selects Silverman's rule: 1.06 * sigma * n^{-1/5} (floored at a small
  /// positive value for degenerate samples).
  static StatusOr<GaussianKde> Fit(std::vector<double> sample,
                                   double bandwidth = 0.0);

  /// Density estimate at x.
  double Density(double x) const;

  /// P(X <= x) under the smoothed distribution (sum of Gaussian CDFs).
  double Cdf(double x) const;

  /// P(X > x) = 1 - Cdf(x): the single-dimension exceedance probability.
  double Exceedance(double x) const { return 1.0 - Cdf(x); }

  double bandwidth() const { return bandwidth_; }

 private:
  GaussianKde(std::vector<double> sample, double bandwidth)
      : sample_(std::move(sample)), bandwidth_(bandwidth) {}

  std::vector<double> sample_;
  double bandwidth_;
};

}  // namespace doppler::stats

#endif  // DOPPLER_STATS_KDE_H_
