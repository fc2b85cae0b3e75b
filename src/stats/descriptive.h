#ifndef DOPPLER_STATS_DESCRIPTIVE_H_
#define DOPPLER_STATS_DESCRIPTIVE_H_

#include <vector>

namespace doppler::stats {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Population variance (divide by n); 0 for fewer than 2 values.
double Variance(const std::vector<double>& values);

/// Population standard deviation.
double StdDev(const std::vector<double>& values);

/// Minimum; +inf for an empty input.
double Min(const std::vector<double>& values);

/// Maximum; -inf for an empty input.
double Max(const std::vector<double>& values);

/// Quantile with linear interpolation between order statistics (the "R-7"
/// definition used by NumPy's default). `q` is clamped to [0, 1]; returns 0
/// for an empty input. The baseline recommender collapses each perf counter
/// series with this at q = 0.95 (or q = 1.0 for "max"). Selects the two
/// order statistics it interpolates between from one copy of the input
/// (linear time) instead of sorting it; the value equals interpolating over
/// the sorted series.
double Quantile(const std::vector<double>& values, double q);

/// Median (Quantile at 0.5).
double Median(const std::vector<double>& values);

/// Pearson correlation of two equal-length series; 0 when undefined.
double Correlation(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace doppler::stats

#endif  // DOPPLER_STATS_DESCRIPTIVE_H_
