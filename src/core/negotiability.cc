#include "core/negotiability.h"

#include <algorithm>
#include <cmath>

#include "stats/auc.h"
#include "stats/descriptive.h"
#include "stats/outliers.h"
#include "stats/stl.h"

namespace doppler::core {

StatusOr<NegotiabilityScores> NegotiabilityStrategy::Evaluate(
    const telemetry::PerfTrace& trace,
    const std::vector<catalog::ResourceDim>& dims) const {
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  if (dims.empty()) {
    return InvalidArgumentError("no profiling dimensions given");
  }
  NegotiabilityScores result;
  result.dims = dims;
  result.scores.reserve(dims.size());
  result.negotiable.reserve(dims.size());
  for (catalog::ResourceDim dim : dims) {
    const double score = trace.Has(dim) ? ScoreSeries(trace.Values(dim)) : 0.0;
    result.scores.push_back(score);
    result.negotiable.push_back(score > NegotiableCutoff());
  }
  return result;
}

double ThresholdingStrategy::SpikeDurationFraction(
    const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  const double sd = stats::StdDev(values);
  if (sd <= 0.0) return 1.0;  // A constant counter "peaks" the whole time.
  const double window_low = stats::Max(values) - sd;
  std::size_t inside = 0;
  for (double v : values) {
    if (v >= window_low) ++inside;
  }
  return static_cast<double>(inside) / static_cast<double>(values.size());
}

double ThresholdingStrategy::ScoreSeries(
    const std::vector<double>& values) const {
  return 1.0 - SpikeDurationFraction(values);
}

double MinMaxAucStrategy::ScoreSeries(const std::vector<double>& values) const {
  return stats::MinMaxScalerAuc(values);
}

double MaxAucStrategy::ScoreSeries(const std::vector<double>& values) const {
  return stats::MaxScalerAuc(values);
}

double OutlierPercentageStrategy::ScoreSeries(
    const std::vector<double>& values) const {
  // A 5% outlier mass is already extremely spiky; saturate there so the
  // score spans [0, 1] like the other strategies.
  return std::min(1.0, stats::OutlierFraction(values) / 0.05);
}

double StlVarianceStrategy::ScoreSeries(
    const std::vector<double>& values) const {
  stats::StlOptions options;
  options.period = period_;
  StatusOr<stats::StlDecomposition> decomposition =
      stats::DecomposeStl(values, options);
  if (!decomposition.ok()) {
    // Series shorter than two periods: fall back to treating all variance
    // beyond a flat mean as unexplained.
    const double var = stats::Variance(values);
    const double mean = stats::Mean(values);
    if (var <= 0.0 || mean == 0.0) return 0.0;
    return std::min(1.0, var / (mean * mean));
  }
  return 1.0 - decomposition->VarianceExplained(values);
}

double CombinedStrategy::ScoreSeries(const std::vector<double>& values) const {
  return 1.0 - ThresholdingStrategy::SpikeDurationFraction(values);
}

StatusOr<NegotiabilityScores> CombinedStrategy::EvaluateCombined(
    const telemetry::PerfTrace& trace,
    const std::vector<catalog::ResourceDim>& dims) const {
  DOPPLER_ASSIGN_OR_RETURN(NegotiabilityScores combined, Evaluate(trace, dims));
  MinMaxAucStrategy auc;
  DOPPLER_ASSIGN_OR_RETURN(NegotiabilityScores auc_scores,
                           auc.Evaluate(trace, dims));
  combined.scores.insert(combined.scores.end(), auc_scores.scores.begin(),
                         auc_scores.scores.end());
  return combined;
}

std::vector<std::shared_ptr<NegotiabilityStrategy>> AllStrategies(double rho) {
  return {
      std::make_shared<MinMaxAucStrategy>(),
      std::make_shared<MaxAucStrategy>(),
      std::make_shared<ThresholdingStrategy>(rho),
      std::make_shared<OutlierPercentageStrategy>(),
      std::make_shared<StlVarianceStrategy>(),
      std::make_shared<CombinedStrategy>(rho),
  };
}

}  // namespace doppler::core
