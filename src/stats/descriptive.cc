#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace doppler::stats {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) {
    const double d = v - mean;
    sum_sq += d * d;
  }
  return sum_sq / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Min(const std::vector<double>& values) {
  double result = std::numeric_limits<double>::infinity();
  for (double v : values) result = std::min(result, v);
  return result;
}

double Max(const std::vector<double>& values) {
  double result = -std::numeric_limits<double>::infinity();
  for (double v : values) result = std::max(result, v);
  return result;
}

double Quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  // Order statistic `lower` lands in place; every element after it is no
  // smaller, so the next order statistic is their minimum.
  std::vector<double> order = values;
  const auto nth = order.begin() + static_cast<std::ptrdiff_t>(lower);
  std::nth_element(order.begin(), nth, order.end());
  const double low = *nth;
  const double high = nth + 1 == order.end()
                          ? low
                          : *std::min_element(nth + 1, order.end());
  return low + fraction * (high - low);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace doppler::stats
