// Unit and property tests for src/stats.

#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "stats/auc.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stats/loess.h"
#include "stats/outliers.h"
#include "stats/scalers.h"
#include "stats/stl.h"
#include "util/random.h"

namespace doppler::stats {
namespace {

// ----------------------------------------------------------- Descriptive.

TEST(DescriptiveTest, MeanVarianceStd) {
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_DOUBLE_EQ(Variance(values), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(values), 2.0);
}

TEST(DescriptiveTest, EmptyInputsAreSafe) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_TRUE(std::isinf(Min({})));
  EXPECT_TRUE(std::isinf(Max({})));
}

TEST(DescriptiveTest, QuantileInterpolatesLinearly) {
  const std::vector<double> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0 / 3.0), 2.0);
}

TEST(DescriptiveTest, QuantileClampsOutOfRangeQ) {
  const std::vector<double> values = {5, 1, 3};
  EXPECT_DOUBLE_EQ(Quantile(values, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 2.0), 5.0);
}

TEST(DescriptiveTest, QuantileDoesNotMutateInput) {
  const std::vector<double> values = {3, 1, 2};
  (void)Quantile(values, 0.5);
  EXPECT_EQ(values, (std::vector<double>{3, 1, 2}));
}

TEST(DescriptiveTest, CorrelationOfLinearSeriesIsOne) {
  std::vector<double> x(50), y(50);
  std::iota(x.begin(), x.end(), 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = 3.0 * x[i] + 2.0;
  EXPECT_NEAR(Correlation(x, y), 1.0, 1e-12);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = -x[i];
  EXPECT_NEAR(Correlation(x, y), -1.0, 1e-12);
}

TEST(DescriptiveTest, CorrelationDegenerateIsZero) {
  EXPECT_EQ(Correlation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_EQ(Correlation({1}, {2}), 0.0);
}

// ------------------------------------------------------------------ ECDF.

TEST(EcdfTest, EvaluateMatchesDefinition) {
  Ecdf ecdf({1.0, 2.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ecdf.Evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.Evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.Evaluate(2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf.Evaluate(10.0), 1.0);
}

TEST(EcdfTest, NormalizedAucIsOneMinusScaledMean) {
  // Sample {0, 1}: scaled mean 0.5 -> AUC 0.5.
  EXPECT_DOUBLE_EQ(Ecdf({0.0, 1.0}).NormalizedAuc(), 0.5);
  // Mostly-low sample: AUC near 1.
  std::vector<double> spiky(99, 0.0);
  spiky.push_back(1.0);
  EXPECT_NEAR(Ecdf(spiky).NormalizedAuc(), 0.99, 1e-9);
}

TEST(EcdfTest, DegenerateSamplesReturnNeutralAuc) {
  EXPECT_DOUBLE_EQ(Ecdf({}).NormalizedAuc(), 0.5);
  EXPECT_DOUBLE_EQ(Ecdf({3.0, 3.0}).NormalizedAuc(), 0.5);
}

TEST(EcdfTest, UnitIntervalAucClampsInputs) {
  // Values above 1 count as 1.
  EXPECT_DOUBLE_EQ(Ecdf({2.0, 2.0}).AucOverUnitInterval(), 0.0);
  EXPECT_DOUBLE_EQ(Ecdf({0.0, 0.0}).AucOverUnitInterval(), 1.0);
}

// --------------------------------------------------------------- Scalers.

TEST(ScalersTest, MinMaxMapsToUnitInterval) {
  const std::vector<double> scaled = MinMaxScale({10, 20, 30});
  EXPECT_DOUBLE_EQ(scaled[0], 0.0);
  EXPECT_DOUBLE_EQ(scaled[1], 0.5);
  EXPECT_DOUBLE_EQ(scaled[2], 1.0);
}

TEST(ScalersTest, MinMaxConstantSeriesMapsToHalf) {
  for (double v : MinMaxScale({4, 4, 4})) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(ScalersTest, MaxScaleDividesByMax) {
  const std::vector<double> scaled = MaxScale({5, 10});
  EXPECT_DOUBLE_EQ(scaled[0], 0.5);
  EXPECT_DOUBLE_EQ(scaled[1], 1.0);
}

TEST(ScalersTest, MaxScaleNonPositiveMaxIsZero) {
  for (double v : MaxScale({-1, 0})) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ScalersTest, StandardScaleHasZeroMeanUnitVar) {
  const std::vector<double> scaled = StandardScale({1, 2, 3, 4, 5});
  EXPECT_NEAR(Mean(scaled), 0.0, 1e-12);
  EXPECT_NEAR(Variance(scaled), 1.0, 1e-12);
}

// ------------------------------------------------------------------- AUC.

TEST(AucTest, TrapezoidOnKnownShape) {
  // Triangle: y = x on [0, 1] -> area 0.5.
  std::vector<double> x, y;
  for (int i = 0; i <= 100; ++i) {
    x.push_back(i / 100.0);
    y.push_back(i / 100.0);
  }
  EXPECT_NEAR(TrapezoidArea(x, y), 0.5, 1e-12);
}

TEST(AucTest, SpikySeriesHasHigherAucThanSteady) {
  Rng rng(3);
  std::vector<double> steady, spiky;
  for (int i = 0; i < 2000; ++i) {
    steady.push_back(80.0 + rng.Normal(0.0, 3.0));
    spiky.push_back(i % 400 == 0 ? 95.0 : 10.0 + rng.Normal(0.0, 1.0));
  }
  EXPECT_GT(MinMaxScalerAuc(spiky), MinMaxScalerAuc(steady));
  EXPECT_GT(MaxScalerAuc(spiky), MaxScalerAuc(steady));
}

TEST(AucTest, MaxScalerSeparatesSteadyHighFromSpiky) {
  // Steady-high usage: mean close to max -> low AUC.
  std::vector<double> steady_high(1000, 90.0);
  steady_high[0] = 100.0;
  EXPECT_LT(MaxScalerAuc(steady_high), 0.2);
}

// -------------------------------------------------------------- Outliers.

TEST(OutliersTest, GaussianHasFewThreeSigmaOutliers) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(rng.Normal());
  EXPECT_NEAR(OutlierFraction(values), 0.0027, 0.001);
}

TEST(OutliersTest, ConstantSeriesHasNoOutliers) {
  EXPECT_EQ(OutlierFraction(std::vector<double>(100, 2.0)), 0.0);
}

TEST(OutliersTest, SpikesAreDetected) {
  std::vector<double> values(1000, 1.0);
  for (int i = 0; i < 10; ++i) values[i * 97] = 500.0;
  EXPECT_GT(OutlierFraction(values), 0.005);
}

// ----------------------------------------------------------------- LOESS.

TEST(LoessTest, WindowNormalisedToOddMinimum) {
  EXPECT_EQ(LoessSmoother(1).window(), 3);
  EXPECT_EQ(LoessSmoother(4).window(), 5);
  EXPECT_EQ(LoessSmoother(7).window(), 7);
}

TEST(LoessTest, ReproducesLinearTrendExactly) {
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(2.0 * i + 1.0);
  const std::vector<double> smoothed = LoessSmoother(11).Smooth(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(smoothed[i], values[i], 1e-8) << "at index " << i;
  }
}

TEST(LoessTest, ReducesNoiseVariance) {
  Rng rng(7);
  std::vector<double> noisy;
  for (int i = 0; i < 500; ++i) {
    noisy.push_back(std::sin(i * 0.02) + rng.Normal(0.0, 0.5));
  }
  const std::vector<double> smoothed = LoessSmoother(25).Smooth(noisy);
  std::vector<double> residual(noisy.size());
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    residual[i] = noisy[i] - std::sin(i * 0.02);
  }
  std::vector<double> smooth_residual(noisy.size());
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    smooth_residual[i] = smoothed[i] - std::sin(i * 0.02);
  }
  EXPECT_LT(Variance(smooth_residual), Variance(residual) * 0.3);
}

TEST(LoessTest, HandlesShortSeries) {
  EXPECT_TRUE(LoessSmoother(9).Smooth({}).empty());
  EXPECT_EQ(LoessSmoother(9).Smooth({5.0}).size(), 1u);
  EXPECT_NEAR(LoessSmoother(9).Smooth({5.0})[0], 5.0, 1e-9);
}

// ------------------------------------------------------------------- STL.

std::vector<double> SeasonalSeries(int n, int period, double trend_slope,
                                   double amplitude, double noise,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (int i = 0; i < n; ++i) {
    values.push_back(trend_slope * i +
                     amplitude * std::sin(2.0 * M_PI * i / period) +
                     rng.Normal(0.0, noise));
  }
  return values;
}

TEST(StlTest, ComponentsSumToObserved) {
  const std::vector<double> observed = SeasonalSeries(600, 48, 0.01, 5.0, 0.5, 1);
  StlOptions options;
  options.period = 48;
  StatusOr<StlDecomposition> result = DecomposeStl(observed, options);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_NEAR(result->trend[i] + result->seasonal[i] + result->remainder[i],
                observed[i], 1e-9);
  }
}

TEST(StlTest, ExplainsSeasonalSeries) {
  const std::vector<double> observed = SeasonalSeries(720, 48, 0.02, 5.0, 0.3, 2);
  StlOptions options;
  options.period = 48;
  StatusOr<StlDecomposition> result = DecomposeStl(observed, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->VarianceExplained(observed), 0.9);
}

TEST(StlTest, NoiseSeriesExplainsLittle) {
  Rng rng(3);
  std::vector<double> noise;
  for (int i = 0; i < 720; ++i) noise.push_back(rng.Normal(0.0, 1.0));
  StlOptions options;
  options.period = 48;
  StatusOr<StlDecomposition> result = DecomposeStl(noise, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->VarianceExplained(noise), 0.6);
}

TEST(StlTest, RecoversSeasonalAmplitude) {
  const std::vector<double> observed =
      SeasonalSeries(960, 48, 0.0, 4.0, 0.2, 4);
  StlOptions options;
  options.period = 48;
  StatusOr<StlDecomposition> result = DecomposeStl(observed, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(Max(result->seasonal), 4.0, 1.0);
  EXPECT_NEAR(Min(result->seasonal), -4.0, 1.0);
}

TEST(StlTest, RejectsShortSeries) {
  StlOptions options;
  options.period = 100;
  EXPECT_EQ(DecomposeStl(std::vector<double>(150, 1.0), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(StlTest, RejectsBadOptions) {
  StlOptions options;
  options.period = 1;
  EXPECT_FALSE(DecomposeStl(std::vector<double>(100, 1.0), options).ok());
  options.period = 10;
  options.inner_iterations = 0;
  EXPECT_FALSE(DecomposeStl(std::vector<double>(100, 1.0), options).ok());
}

TEST(StlTest, ConstantSeriesFullyExplained) {
  StlOptions options;
  options.period = 24;
  StatusOr<StlDecomposition> result =
      DecomposeStl(std::vector<double>(240, 7.0), options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->VarianceExplained(std::vector<double>(240, 7.0)),
                   1.0);
}

// ------------------------------------------------------------- Bootstrap.

TEST(BootstrapTest, WithReplacementBoundsAndSize) {
  Rng rng(9);
  Bootstrap bootstrap(50, &rng);
  const std::vector<std::size_t> sample = bootstrap.SampleWithReplacement(200);
  EXPECT_EQ(sample.size(), 200u);
  for (std::size_t i : sample) EXPECT_LT(i, 50u);
}

TEST(BootstrapTest, WindowIsContiguous) {
  Rng rng(11);
  Bootstrap bootstrap(100, &rng);
  for (int run = 0; run < 20; ++run) {
    const std::vector<std::size_t> window = bootstrap.SampleWindow(30);
    ASSERT_EQ(window.size(), 30u);
    for (std::size_t i = 1; i < window.size(); ++i) {
      EXPECT_EQ(window[i], window[i - 1] + 1);
    }
    EXPECT_LT(window.back(), 100u);
  }
}

TEST(BootstrapTest, WindowLargerThanSeriesIsWholeSeries) {
  Rng rng(13);
  Bootstrap bootstrap(10, &rng);
  const std::vector<std::size_t> window = bootstrap.SampleWindow(100);
  EXPECT_EQ(window.size(), 10u);
  EXPECT_EQ(window.front(), 0u);
}

TEST(BootstrapTest, BlocksCoverRequestedSize) {
  Rng rng(15);
  Bootstrap bootstrap(60, &rng);
  const std::vector<std::size_t> sample = bootstrap.SampleBlocks(100, 12);
  EXPECT_EQ(sample.size(), 100u);
  for (std::size_t i : sample) EXPECT_LT(i, 60u);
}

TEST(BootstrapTest, EmptySeriesYieldsEmptySamples) {
  Rng rng(17);
  Bootstrap bootstrap(0, &rng);
  EXPECT_TRUE(bootstrap.SampleWithReplacement(5).empty());
  EXPECT_TRUE(bootstrap.SampleWindow(5).empty());
  EXPECT_TRUE(bootstrap.SampleBlocks(5, 2).empty());
}

TEST(BootstrapTest, GatherPicksValues) {
  EXPECT_EQ(Gather({10, 20, 30}, {2, 0, 2}),
            (std::vector<double>{30, 10, 30}));
}

// ------------------------------------------------------------------- KDE.

TEST(KdeTest, RejectsEmptySample) {
  EXPECT_FALSE(GaussianKde::Fit({}).ok());
}

TEST(KdeTest, CdfIsMonotoneAndBounded) {
  Rng rng(19);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.Normal(10.0, 2.0));
  StatusOr<GaussianKde> kde = GaussianKde::Fit(sample);
  ASSERT_TRUE(kde.ok());
  double previous = 0.0;
  for (double x = 0.0; x <= 20.0; x += 0.5) {
    const double cdf = kde->Cdf(x);
    EXPECT_GE(cdf, previous - 1e-12);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    previous = cdf;
  }
  EXPECT_NEAR(kde->Cdf(10.0), 0.5, 0.05);
}

TEST(KdeTest, ExceedanceComplementsCdf) {
  StatusOr<GaussianKde> kde = GaussianKde::Fit({1.0, 2.0, 3.0});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Cdf(2.0) + kde->Exceedance(2.0), 1.0, 1e-12);
}

TEST(KdeTest, DensityIntegratesToOne) {
  StatusOr<GaussianKde> kde = GaussianKde::Fit({0.0, 1.0, 2.0});
  ASSERT_TRUE(kde.ok());
  double integral = 0.0;
  const double dx = 0.01;
  for (double x = -10.0; x <= 12.0; x += dx) integral += kde->Density(x) * dx;
  EXPECT_NEAR(integral, 1.0, 0.01);
}

// Pins the evaluation bytes: Cdf and Density are the Gaussian kernel terms
// summed in sample order, then scaled — exactly, not within a tolerance.
// The sample lengths cover every remainder of a 2-, 4- or 8-wide loop.
TEST(KdeTest, CdfAndDensityEqualTheSampleOrderSum) {
  Rng rng(555);
  for (std::size_t n : {1000, 1001, 1002, 1003}) {
    std::vector<double> sample(n);
    for (double& s : sample) {
      s = (static_cast<double>(rng.UniformInt(10000)) - 5000.0) / 250.0;
    }
    // 0 selects Silverman's bandwidth.
    for (double requested : {0.0, 0.25, 1.0, 3.7}) {
      StatusOr<GaussianKde> kde = GaussianKde::Fit(sample, requested);
      ASSERT_TRUE(kde.ok());
      const double h = kde->bandwidth();
      for (double x : {-7.5, 0.0, 0.3, 12.0}) {
        double cdf_sum = 0.0;
        double density_sum = 0.0;
        for (double s : sample) {
          const double z = (x - s) / h;
          cdf_sum += 0.5 * (1.0 + std::erf(z * 0.7071067811865476));
          density_sum += std::exp(-0.5 * z * z);
        }
        const double cdf = cdf_sum / static_cast<double>(n);
        const double density = density_sum * 0.3989422804014327 /
                               (h * static_cast<double>(n));
        const double got_cdf = kde->Cdf(x);
        const double got_density = kde->Density(x);
        EXPECT_EQ(std::memcmp(&got_cdf, &cdf, sizeof(double)), 0)
            << "n=" << n << " h=" << h << " x=" << x << " got=" << got_cdf
            << " want=" << cdf;
        EXPECT_EQ(std::memcmp(&got_density, &density, sizeof(double)), 0)
            << "n=" << n << " h=" << h << " x=" << x << " got=" << got_density
            << " want=" << density;
      }
    }
  }
}

TEST(KdeTest, SilvermanBandwidthPositive) {
  StatusOr<GaussianKde> kde = GaussianKde::Fit({1, 2, 3, 4, 5});
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
  // Degenerate sample still gets a positive bandwidth.
  StatusOr<GaussianKde> flat = GaussianKde::Fit({2, 2, 2});
  ASSERT_TRUE(flat.ok());
  EXPECT_GT(flat->bandwidth(), 0.0);
}

// -------------------------------------------------------------- Histogram.

TEST(HistogramTest, BinsAndClamping) {
  Histogram hist(0.0, 1.0, 4);
  hist.AddAll({-0.5, 0.1, 0.3, 0.6, 0.9, 1.5});
  EXPECT_EQ(hist.total_count(), 6u);
  EXPECT_EQ(hist.count(0), 2u);  // -0.5 clamped in, 0.1.
  EXPECT_EQ(hist.count(1), 1u);
  EXPECT_EQ(hist.count(2), 1u);
  EXPECT_EQ(hist.count(3), 2u);  // 0.9, 1.5 clamped.
}

TEST(HistogramTest, FractionsSumToOne) {
  Histogram hist(0.0, 10.0, 5);
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) hist.Add(rng.Uniform(0.0, 10.0));
  double total = 0.0;
  for (double f : hist.Fractions()) total += f;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(HistogramTest, LabelsShowRanges) {
  Histogram hist(0.0, 1.0, 2);
  EXPECT_EQ(hist.BinLabel(0, 1), "[0.0, 0.5)");
  EXPECT_EQ(hist.BinLabel(1, 1), "[0.5, 1.0]");
}

TEST(HistogramTest, DegenerateConstructionCoerced) {
  Histogram hist(5.0, 5.0, 0);
  hist.Add(5.0);
  EXPECT_EQ(hist.num_bins(), 1);
  EXPECT_EQ(hist.total_count(), 1u);
}

// ------------------------------------ Parameterised property sweeps.

class QuantileOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileOrderProperty, QuantilesAreMonotoneInQ) {
  Rng rng(GetParam());
  std::vector<double> values;
  const int n = 50 + static_cast<int>(rng.UniformInt(500));
  for (int i = 0; i < n; ++i) values.push_back(rng.LogNormal(0.0, 1.5));
  double previous = Quantile(values, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double current = Quantile(values, q);
    EXPECT_GE(current, previous - 1e-12);
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileOrderProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class AucBoundsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AucBoundsProperty, BothAucsStayInUnitInterval) {
  Rng rng(GetParam());
  std::vector<double> values;
  const int n = 10 + static_cast<int>(rng.UniformInt(1000));
  for (int i = 0; i < n; ++i) values.push_back(rng.Pareto(1.0, 1.2));
  const double minmax = MinMaxScalerAuc(values);
  const double max = MaxScalerAuc(values);
  EXPECT_GE(minmax, 0.0);
  EXPECT_LE(minmax, 1.0);
  EXPECT_GE(max, 0.0);
  EXPECT_LE(max, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucBoundsProperty,
                         ::testing::Values(2, 4, 6, 10, 16, 26, 42));

class StlReconstructionProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(StlReconstructionProperty, AlwaysReconstructsAndBoundsVe) {
  const auto [period, noise] = GetParam();
  const std::vector<double> observed = SeasonalSeries(
      period * 8, period, 0.01, 3.0, noise, static_cast<std::uint64_t>(period));
  StlOptions options;
  options.period = period;
  StatusOr<StlDecomposition> result = DecomposeStl(observed, options);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    ASSERT_NEAR(result->trend[i] + result->seasonal[i] + result->remainder[i],
                observed[i], 1e-9);
  }
  const double ve = result->VarianceExplained(observed);
  EXPECT_GE(ve, 0.0);
  EXPECT_LE(ve, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StlReconstructionProperty,
    ::testing::Combine(::testing::Values(12, 24, 48, 144),
                       ::testing::Values(0.1, 0.5, 2.0)));

}  // namespace
}  // namespace doppler::stats
