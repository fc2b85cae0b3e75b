#ifndef DOPPLER_CORE_NEGOTIABILITY_H_
#define DOPPLER_CORE_NEGOTIABILITY_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/resource.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::core {

/// Per-customer negotiability summary: for each profiling dimension, a
/// continuous score in [0, 1] (higher = more negotiable, i.e. usage in that
/// dimension is transient/spiky) and a binarised flag. The continuous
/// vector feeds distance-based clustering (k-means/hierarchical); the flags
/// feed straight 2^k enumeration (paper §3.3 / §5.2.1).
struct NegotiabilityScores {
  /// Dimensions summarised, in order.
  std::vector<catalog::ResourceDim> dims;
  /// Continuous negotiability per dimension, aligned with `dims`.
  std::vector<double> scores;
  /// Binarised negotiability per dimension (true = negotiable).
  std::vector<bool> negotiable;
};

/// One of the summarisation strategies the paper compares (§3.3, Table 4).
/// Every strategy collapses each dimension's time series into one scalar.
class NegotiabilityStrategy {
 public:
  virtual ~NegotiabilityStrategy() = default;

  /// Summarises `trace` over `dims`. Dimensions missing from the trace are
  /// scored 0 (non-negotiable: nothing is known about them, so nothing is
  /// granted). Fails on an empty trace.
  StatusOr<NegotiabilityScores> Evaluate(
      const telemetry::PerfTrace& trace,
      const std::vector<catalog::ResourceDim>& dims) const;

  /// Display name matching the paper's Table 4 rows.
  virtual const char* name() const = 0;

  /// Score vector handed to distance-based clustering. Defaults to the
  /// per-dimension Evaluate scores; CombinedStrategy widens it to the
  /// concatenated thresholding + AUC vector.
  virtual StatusOr<NegotiabilityScores> EvaluateForClustering(
      const telemetry::PerfTrace& trace,
      const std::vector<catalog::ResourceDim>& dims) const {
    return Evaluate(trace, dims);
  }

 protected:
  /// Continuous negotiability of one series, in [0, 1].
  virtual double ScoreSeries(const std::vector<double>& values) const = 0;

  /// Score above which a dimension counts as negotiable.
  virtual double NegotiableCutoff() const { return 0.5; }
};

/// The production strategy (the "threshold algorithm"): find the series
/// max, open a window one standard deviation below it, and measure how much
/// of the assessment period the counter spends inside the window. Short
/// total duration => the peaks are transient => negotiable. `rho` is the
/// duration fraction above which the dimension is non-negotiable; the
/// continuous score is 1 - duration fraction.
class ThresholdingStrategy : public NegotiabilityStrategy {
 public:
  explicit ThresholdingStrategy(double rho = 0.10) : rho_(rho) {}
  const char* name() const override { return "Thresholding Algorithm"; }
  double rho() const { return rho_; }

  /// The duration fraction itself (time within one sigma of the max).
  static double SpikeDurationFraction(const std::vector<double>& values);

 protected:
  double ScoreSeries(const std::vector<double>& values) const override;
  double NegotiableCutoff() const override { return 1.0 - rho_; }

 private:
  double rho_;
};

/// AUC of the ECDF after min-max scaling; high AUC = the counter hugs its
/// minimum = spiky usage.
class MinMaxAucStrategy : public NegotiabilityStrategy {
 public:
  const char* name() const override { return "MinMax Scaler AUC"; }

 protected:
  double ScoreSeries(const std::vector<double>& values) const override;
  double NegotiableCutoff() const override { return 0.72; }
};

/// AUC of the ECDF after max scaling only; anchoring at zero "better
/// identifies large spikes" (paper §3.3).
class MaxAucStrategy : public NegotiabilityStrategy {
 public:
  const char* name() const override { return "Max Scaler AUC"; }

 protected:
  double ScoreSeries(const std::vector<double>& values) const override;
  double NegotiableCutoff() const override { return 0.55; }
};

/// Fraction of samples at least three standard deviations from the mean,
/// rescaled so that a few-percent outlier mass saturates the score.
class OutlierPercentageStrategy : public NegotiabilityStrategy {
 public:
  const char* name() const override { return "Outlier Percentage"; }

 protected:
  double ScoreSeries(const std::vector<double>& values) const override;
  double NegotiableCutoff() const override { return 0.3; }
};

/// STL variance decomposition: 1 - (variance explained by trend plus
/// seasonality). Spike-dominated counters leave their variance in the STL
/// remainder and score high.
class StlVarianceStrategy : public NegotiabilityStrategy {
 public:
  /// `period` is the seasonal cycle in samples (default: one day at the
  /// DMA cadence).
  explicit StlVarianceStrategy(int period = 144) : period_(period) {}
  const char* name() const override { return "STL Variance Decomposition"; }

 protected:
  double ScoreSeries(const std::vector<double>& values) const override;
  double NegotiableCutoff() const override { return 0.5; }

 private:
  int period_;
};

/// MinMax AUC scores concatenated with the thresholding scores: the
/// "MinMax Scaler AUC adjusted with timeseries" row of Table 4. Bits come
/// from the thresholding half; the doubled continuous vector feeds
/// clustering.
class CombinedStrategy : public NegotiabilityStrategy {
 public:
  explicit CombinedStrategy(double rho = 0.10) : rho_(rho) {}
  const char* name() const override {
    return "MinMax Scaler AUC adjusted with timeseries";
  }

  /// Emits the concatenated score vector: k thresholding scores followed by
  /// k MinMax-AUC scores (bits from the thresholding half). Clustering
  /// callers use this; the base Evaluate keeps the one-score-per-dim shape
  /// using the thresholding scores.
  StatusOr<NegotiabilityScores> EvaluateCombined(
      const telemetry::PerfTrace& trace,
      const std::vector<catalog::ResourceDim>& dims) const;

  StatusOr<NegotiabilityScores> EvaluateForClustering(
      const telemetry::PerfTrace& trace,
      const std::vector<catalog::ResourceDim>& dims) const override {
    return EvaluateCombined(trace, dims);
  }

 protected:
  double ScoreSeries(const std::vector<double>& values) const override;
  double NegotiableCutoff() const override { return 1.0 - rho_; }

 private:
  double rho_;
};

/// All six strategies in the paper's Table 4 order.
std::vector<std::shared_ptr<NegotiabilityStrategy>> AllStrategies(double rho = 0.10);

}  // namespace doppler::core

#endif  // DOPPLER_CORE_NEGOTIABILITY_H_
