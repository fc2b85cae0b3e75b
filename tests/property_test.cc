// Cross-cutting engine invariants, checked over randomized workloads:
// things that must hold regardless of trace shape, catalog composition or
// pricing configuration. These are the properties a production deployment
// leans on without ever stating them.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <optional>

#include <gtest/gtest.h>

#include "bitwise_model.h"
#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "exec/thread_pool.h"
#include "core/negotiability.h"
#include "core/price_performance.h"
#include "core/recommender.h"
#include "core/throttling.h"
#include "dma/preprocess.h"
#include "stats/descriptive.h"
#include "telemetry/aggregate.h"
#include "util/kernels/kernels.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// A random multi-dimensional workload drawn from the archetype families.
telemetry::PerfTrace RandomTrace(std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "prop-" + std::to_string(seed);
  const double s = std::exp(rng.Uniform(0.0, 2.5));
  workload::DimensionSpec cpu = workload::DimensionSpec::Spiky(
      0.3 * s, rng.Uniform(0.5, 2.0) * s, rng.Uniform(0.3, 2.0),
      rng.Uniform(10.0, 60.0));
  cpu.base_amplitude = rng.Uniform(0.1, 0.5) * s;
  spec.dims[ResourceDim::kCpu] = cpu;
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::DailyPeriodic(2.0 * s, 1.5 * s);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(150.0 * s, 120.0 * s);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(rng.Uniform(2.0, 9.0), 0.04);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 5.0, &rng);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new catalog::SkuCatalog(catalog::BuildAzureLikeCatalog());
    pricing_ = new catalog::DefaultPricing();
    compiled_ = new catalog::CompiledCatalog(
        catalog::CompiledCatalog::Compile(*catalog_, pricing_));
    estimator_ = new core::NonParametricEstimator();
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete compiled_;
    delete pricing_;
    delete catalog_;
  }

  static catalog::SkuCatalog* catalog_;
  static catalog::DefaultPricing* pricing_;
  static catalog::CompiledCatalog* compiled_;
  static core::NonParametricEstimator* estimator_;
};

catalog::SkuCatalog* EngineProperty::catalog_ = nullptr;
catalog::DefaultPricing* EngineProperty::pricing_ = nullptr;
catalog::CompiledCatalog* EngineProperty::compiled_ = nullptr;
core::NonParametricEstimator* EngineProperty::estimator_ = nullptr;

// The non-parametric estimate and the thresholding profile depend only on
// the distribution of samples, so shuffling the trace must not change the
// recommendation inputs.
TEST_P(EngineProperty, EstimateIsPermutationInvariant) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<std::size_t> order(trace.num_samples());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const telemetry::PerfTrace shuffled = trace.Select(order);

  const catalog::Sku sku = catalog_->skus()[GetParam() % catalog_->size()];
  StatusOr<double> p1 = estimator_->Probability(trace, sku.Capacities());
  StatusOr<double> p2 = estimator_->Probability(shuffled, sku.Capacities());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_DOUBLE_EQ(*p1, *p2);
}

// Raising any capacity can only lower (or keep) the throttling estimate.
TEST_P(EngineProperty, ProbabilityMonotoneInCapacity) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  catalog::Sku small = *catalog_->FindById("DB_GP_Gen5_4");
  catalog::Sku bigger = small;
  bigger.vcores *= 2;
  bigger.max_memory_gb *= 2;
  bigger.max_iops *= 2;
  bigger.max_log_rate_mbps *= 2;
  bigger.max_workers *= 2;
  StatusOr<double> p_small =
      estimator_->Probability(trace, small.Capacities());
  StatusOr<double> p_big =
      estimator_->Probability(trace, bigger.Capacities());
  ASSERT_TRUE(p_small.ok());
  ASSERT_TRUE(p_big.ok());
  EXPECT_LE(*p_big, *p_small + 1e-12);
}

// Scaling every price by a constant re-scales the x-axis but never changes
// which SKU any selection rule picks.
TEST_P(EngineProperty, SelectionInvariantToUniformPriceScaling) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  // The snapshot memoizes billed prices, so the scaled billing needs its
  // own compilation — exactly how a reprice rolls out in production.
  const catalog::DefaultPricing expensive(3.0);
  const catalog::CompiledCatalog recompiled =
      catalog::CompiledCatalog::Compile(*catalog_, &expensive);
  StatusOr<core::PricePerformanceCurve> base = core::PricePerformanceCurve::
      Build(trace, compiled_->ForDeployment(Deployment::kSqlDb).view(),
            *pricing_, *estimator_);
  StatusOr<core::PricePerformanceCurve> scaled = core::PricePerformanceCurve::
      Build(trace, recompiled.ForDeployment(Deployment::kSqlDb).view(),
            expensive, *estimator_);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(scaled.ok());
  // Same SKU order along the curve.
  for (std::size_t i = 0; i < base->size(); ++i) {
    EXPECT_EQ(base->points()[i].sku.id, scaled->points()[i].sku.id);
  }
  // Same picks.
  StatusOr<core::PricePerformancePoint> cheapest_base =
      base->CheapestFullySatisfying();
  StatusOr<core::PricePerformancePoint> cheapest_scaled =
      scaled->CheapestFullySatisfying();
  ASSERT_EQ(cheapest_base.ok(), cheapest_scaled.ok());
  if (cheapest_base.ok()) {
    EXPECT_EQ(cheapest_base->sku.id, cheapest_scaled->sku.id);
  }
  for (double target : {0.01, 0.05, 0.2}) {
    StatusOr<core::PricePerformancePoint> a = base->ClosestBelowTarget(target);
    StatusOr<core::PricePerformancePoint> b =
        scaled->ClosestBelowTarget(target);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->sku.id, b->sku.id) << "target " << target;
  }
}

// Adding candidates can only improve (or match) the cheapest fully
// satisfying price: more options never hurt.
TEST_P(EngineProperty, MoreCandidatesNeverWorsenTheBestBuy) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  const std::vector<catalog::Sku> all =
      catalog_->ForDeployment(Deployment::kSqlDb);
  catalog::SkuCatalog half;
  for (std::size_t i = 0; i < all.size(); i += 2) half.Add(all[i]);
  const catalog::CompiledCatalog half_compiled =
      catalog::CompiledCatalog::Compile(std::move(half), pricing_);

  StatusOr<core::PricePerformanceCurve> full_curve =
      core::PricePerformanceCurve::Build(
          trace, compiled_->ForDeployment(Deployment::kSqlDb).view(),
          *pricing_, *estimator_);
  StatusOr<core::PricePerformanceCurve> half_curve =
      core::PricePerformanceCurve::Build(
          trace, half_compiled.ForDeployment(Deployment::kSqlDb).view(),
          *pricing_, *estimator_);
  ASSERT_TRUE(full_curve.ok());
  ASSERT_TRUE(half_curve.ok());
  StatusOr<core::PricePerformancePoint> full_best =
      full_curve->CheapestFullySatisfying();
  StatusOr<core::PricePerformancePoint> half_best =
      half_curve->CheapestFullySatisfying();
  if (half_best.ok()) {
    ASSERT_TRUE(full_best.ok());
    EXPECT_LE(full_best->monthly_price, half_best->monthly_price + 1e-9);
  }
}

// The 10-minute pre-aggregation never manufactures demand: per-dimension
// means are preserved (average rule) and maxima never increase.
TEST_P(EngineProperty, AggregationPreservesMeansAndBoundsMaxima) {
  Rng rng(GetParam());
  std::vector<double> raw(1200);
  for (auto& v : raw) v = rng.LogNormal(1.0, 0.8);
  StatusOr<std::vector<double>> binned =
      telemetry::Resample(raw, 60, 600, telemetry::AggKind::kAverage);
  ASSERT_TRUE(binned.ok());
  EXPECT_NEAR(stats::Mean(*binned), stats::Mean(raw), 1e-9);
  EXPECT_LE(stats::Max(*binned), stats::Max(raw) + 1e-12);

  StatusOr<std::vector<double>> maxed =
      telemetry::Resample(raw, 60, 600, telemetry::AggKind::kMax);
  ASSERT_TRUE(maxed.ok());
  EXPECT_DOUBLE_EQ(stats::Max(*maxed), stats::Max(raw));
}

// Every negotiability strategy is permutation-sensitive ONLY where it
// should be: AUC/outlier/thresholding summaries are order-free; STL is the
// one time-structure-aware strategy and is exempt.
TEST_P(EngineProperty, OrderFreeStrategiesArePermutationInvariant) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  Rng rng(GetParam() ^ 0x1234);
  std::vector<std::size_t> order(trace.num_samples());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const telemetry::PerfTrace shuffled = trace.Select(order);
  const std::vector<ResourceDim> dims = workload::ProfilingDims(
      Deployment::kSqlDb);

  const core::ThresholdingStrategy thresholding;
  const core::MinMaxAucStrategy minmax;
  const core::MaxAucStrategy max_auc;
  const core::OutlierPercentageStrategy outlier;
  for (const core::NegotiabilityStrategy* strategy :
       std::initializer_list<const core::NegotiabilityStrategy*>{
           &thresholding, &minmax, &max_auc, &outlier}) {
    StatusOr<core::NegotiabilityScores> a = strategy->Evaluate(trace, dims);
    StatusOr<core::NegotiabilityScores> b =
        strategy->Evaluate(shuffled, dims);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (std::size_t i = 0; i < a->scores.size(); ++i) {
      EXPECT_NEAR(a->scores[i], b->scores[i], 1e-9) << strategy->name();
    }
  }
}

// The elastic recommendation always satisfies the Eq. 6 constraint when
// any point does, and never recommends a SKU missing from the catalog.
TEST_P(EngineProperty, RecommendationRespectsGroupConstraint) {
  static core::GroupModel* model = [] {
    StatusOr<core::GroupModel> fitted = dma::FitGroupModelOffline(
        *catalog_, *pricing_, *estimator_, Deployment::kSqlDb, 60, 17);
    EXPECT_TRUE(fitted.ok());
    return new core::GroupModel(*std::move(fitted));
  }();
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(Deployment::kSqlDb));
  const core::ElasticRecommender recommender(compiled_, estimator_, &profiler,
                                             model);
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  StatusOr<core::Recommendation> rec = recommender.RecommendDb(trace);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(catalog_->FindById(rec->sku.id).ok());
  if (rec->group_id >= 0) {
    // Either the constraint held, or no point sat below the target (then
    // the most performant fallback applies).
    bool any_below = false;
    for (const core::PricePerformancePoint& point : rec->curve.points()) {
      any_below |= point.MonotoneProbability() <= rec->group_target;
    }
    if (any_below) {
      EXPECT_LE(rec->throttling_probability, rec->group_target + 1e-9);
    }
  }
}

// Improving capacity in ANY single dimension (raising normal capacities,
// lowering the delivered latency for the inverted dimension) can only lower
// or keep the throttling estimate — per-dimension monotonicity, not just
// the all-dims-at-once variant above.
TEST_P(EngineProperty, ProbabilityMonotonePerDimensionCapacityGrowth) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  const catalog::Sku sku = catalog_->skus()[GetParam() % catalog_->size()];
  const catalog::ResourceVector base = sku.Capacities();
  StatusOr<double> p_base = estimator_->Probability(trace, base);
  ASSERT_TRUE(p_base.ok());
  for (ResourceDim dim : base.PresentDims()) {
    if (!trace.Has(dim)) continue;
    double previous = *p_base;
    for (double factor : {1.5, 4.0, 64.0}) {
      catalog::ResourceVector grown = base;
      grown.Set(dim, catalog::IsInvertedDim(dim) ? base.Get(dim) / factor
                                                 : base.Get(dim) * factor);
      StatusOr<double> p_grown = estimator_->Probability(trace, grown);
      ASSERT_TRUE(p_grown.ok());
      EXPECT_LE(*p_grown, previous + 1e-12)
          << catalog::ResourceDimName(dim) << " x" << factor;
      previous = *p_grown;
    }
  }
}

// The naive row-major formulation of paper Eq. 1, kept here as the
// executable specification the production columnar kernel must match.
double NaiveRowMajorProbability(const telemetry::PerfTrace& trace,
                                const catalog::ResourceVector& capacities) {
  std::vector<ResourceDim> dims;
  for (ResourceDim dim : catalog::kAllResourceDims) {
    if (trace.Has(dim) && capacities.Has(dim)) dims.push_back(dim);
  }
  const std::size_t n = trace.num_samples();
  std::size_t throttled = 0;
  for (std::size_t t = 0; t < n; ++t) {
    bool any = false;
    for (ResourceDim dim : dims) {
      any |= catalog::ResourceVector::Exceeds(dim, trace.Values(dim)[t],
                                              capacities.Get(dim));
    }
    throttled += any;
  }
  return static_cast<double>(throttled) / static_cast<double>(n);
}

// The columnar early-exit union scan is an optimisation, not a model
// change: it must agree with the naive reference EXACTLY (same count, same
// division), on every SKU of the catalog.
TEST_P(EngineProperty, ColumnarScanMatchesNaiveRowMajorReference) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  for (const catalog::Sku& sku : catalog_->skus()) {
    StatusOr<double> columnar = estimator_->Probability(trace, sku.Capacities());
    ASSERT_TRUE(columnar.ok());
    EXPECT_EQ(*columnar, NaiveRowMajorProbability(trace, sku.Capacities()))
        << sku.id;
  }
}

// Every kernel table compiled into this binary and runnable on this CPU.
std::vector<const kernels::KernelOps*> AvailableKernels() {
  std::vector<const kernels::KernelOps*> available;
  for (kernels::KernelIsa isa :
       {kernels::KernelIsa::kScalar, kernels::KernelIsa::kAvx2,
        kernels::KernelIsa::kNeon}) {
    const kernels::KernelOps* ops = kernels::KernelOpsFor(isa);
    if (ops != nullptr) available.push_back(ops);
  }
  return available;
}

// Runs `build` under every available kernel table at 1, 2 and 8 jobs and
// holds every point's raw probability to the naive oracle over
// `capacities_of(point.sku)` — exactly, not approximately.
void ExpectBuildMatchesOracle(
    const telemetry::PerfTrace& trace,
    const std::function<StatusOr<core::PricePerformanceCurve>(
        exec::ThreadPool*)>& build,
    const std::function<catalog::ResourceVector(const catalog::Sku&)>&
        capacities_of) {
  for (const kernels::KernelOps* ops : AvailableKernels()) {
    kernels::ScopedKernelOverride override(ops);
    for (int jobs : {1, 2, 8}) {
      std::optional<exec::ThreadPool> pool;
      if (jobs > 1) pool.emplace(jobs);
      StatusOr<core::PricePerformanceCurve> curve =
          build(pool.has_value() ? &*pool : nullptr);
      ASSERT_TRUE(curve.ok()) << curve.status().ToString();
      for (const core::PricePerformancePoint& point : curve->points()) {
        EXPECT_EQ(point.throttling_probability,
                  NaiveRowMajorProbability(trace, capacities_of(point.sku)))
            << point.sku.id << " kernel " << ops->name << " jobs " << jobs;
      }
    }
  }
}

// The curve build scores each candidate with one columnar scan. Its edge
// candidates must match the naive row-major reference EXACTLY under every
// kernel table and job count: a SKU tied at observed demand on a normal
// dimension (memory, strict '>') and on the inverted one (latency, strict
// '<'), a single-dimension trace (a one-column mark scan), and the MI
// route's layout IOPS override tied at an observed IOPS value.
TEST_P(EngineProperty, BatchCurveProbabilitiesMatchNaiveRowMajorReference) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  const std::size_t n = trace.num_samples();
  catalog::SkuCatalog catalog;
  for (const catalog::Sku& sku : catalog_->skus()) catalog.Add(sku);
  catalog::Sku tied = catalog_->ForDeployment(Deployment::kSqlDb).front();
  tied.id = "TIED";
  tied.max_memory_gb = trace.Values(ResourceDim::kMemoryGb)[n / 2];
  tied.min_io_latency_ms = trace.Values(ResourceDim::kIoLatencyMs)[0];
  catalog.Add(tied);
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(std::move(catalog), pricing_);
  const catalog::CompiledView db =
      compiled.ForDeployment(Deployment::kSqlDb).view();
  const auto sku_capacities = [](const catalog::Sku& sku) {
    return sku.Capacities();
  };
  ExpectBuildMatchesOracle(
      trace,
      [&](exec::ThreadPool* executor) {
        return core::PricePerformanceCurve::Build(trace, db, *pricing_,
                                                  *estimator_, executor);
      },
      sku_capacities);

  telemetry::PerfTrace latency_only;
  ASSERT_TRUE(latency_only
                  .SetSeries(ResourceDim::kIoLatencyMs,
                             trace.Values(ResourceDim::kIoLatencyMs))
                  .ok());
  ExpectBuildMatchesOracle(
      latency_only,
      [&](exec::ThreadPool* executor) {
        return core::PricePerformanceCurve::Build(latency_only, db, *pricing_,
                                                  *estimator_, executor);
      },
      sku_capacities);

  const double iops_tie = trace.Values(ResourceDim::kIops)[n / 3];
  std::vector<core::CompiledCandidateRef> refs;
  for (const catalog::CompiledEntry& entry :
       compiled.ForDeployment(Deployment::kSqlMi).view()) {
    refs.push_back({&entry, iops_tie});
  }
  ExpectBuildMatchesOracle(
      trace,
      [&](exec::ThreadPool* executor) {
        return core::PricePerformanceCurve::Build(trace, refs, *pricing_,
                                                  *estimator_, executor,
                                                  &compiled.target());
      },
      [&](const catalog::Sku& sku) {
        return sku.CapacitiesWithIopsLimit(iops_tie);
      });
}

// Whatever table the dispatcher picks at startup and however many workers
// share the build, every curve over the whole catalog (both deployments)
// stays bit-identical to the naive row-major oracle. This is the
// end-to-end half of the kernel-layer contract (tests/kernel_test.cc pins
// the per-op half).
TEST_P(EngineProperty, BatchCurveProbabilitiesAreKernelImplInvariant) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam() + 17);
  for (Deployment deployment : {Deployment::kSqlDb, Deployment::kSqlMi}) {
    const catalog::CompiledView view =
        compiled_->ForDeployment(deployment).view();
    ExpectBuildMatchesOracle(
        trace,
        [&](exec::ThreadPool* executor) {
          return core::PricePerformanceCurve::Build(trace, view, *pricing_,
                                                    *estimator_, executor);
        },
        [](const catalog::Sku& sku) { return sku.Capacities(); });
  }
}

// The R-7 quantile the way a textbook computes it: sort a copy, then
// interpolate between the two neighbouring order statistics.
double SortedQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

// Order statistics cost one selection or one pass, never a sort: the
// selection quantile and the baseline's scalar requirements equal the
// sort-and-interpolate reference bit for bit, and the thresholding spike
// window opens one standard deviation below the sorted maximum. (The name
// dates from when these numbers were read from a per-trace sorted memo.)
TEST_P(EngineProperty, TraceStatsCacheIsBitIdenticalToDirectComputation) {
  const telemetry::PerfTrace trace = RandomTrace(GetParam());
  for (ResourceDim dim : trace.PresentDims()) {
    const std::vector<double>& values = trace.Values(dim);
    for (double q : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      EXPECT_EQ(Bits(stats::Quantile(values, q)),
                Bits(SortedQuantile(values, q)))
          << catalog::ResourceDimName(dim) << " q=" << q;
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double sd = stats::StdDev(values);
    const double window_low = sorted.back() - sd;
    const double inside = static_cast<double>(
        std::count_if(values.begin(), values.end(),
                      [window_low](double v) { return v >= window_low; }));
    EXPECT_EQ(Bits(core::ThresholdingStrategy::SpikeDurationFraction(values)),
              Bits(sd <= 0.0 ? 1.0
                             : inside / static_cast<double>(values.size())))
        << catalog::ResourceDimName(dim);
  }

  const double quantile = 0.95;
  const core::BaselineRecommender baseline(compiled_, quantile);
  StatusOr<catalog::ResourceVector> needs = baseline.ScalarRequirements(trace);
  ASSERT_TRUE(needs.ok());
  ASSERT_EQ(needs->PresentDims(), trace.PresentDims());
  for (ResourceDim dim : trace.PresentDims()) {
    const double q =
        catalog::IsInvertedDim(dim) ? 1.0 - quantile : quantile;
    EXPECT_EQ(Bits(needs->Get(dim)),
              Bits(SortedQuantile(trace.Values(dim), q)))
        << catalog::ResourceDimName(dim);
  }
}

// Heavy ties and both signed zeros: which tied element the selection lands
// on differs from a sort's, yet every quantile is the same double.
TEST(QuantileProperty, SelectionMatchesSortUnderTiesAndSignedZeros) {
  Rng rng(23);
  const double kLevels[] = {-1.0, -0.0, 0.0, 0.0, 0.5, 1.0, 1.0};
  for (std::size_t n : {1u, 2u, 3u, 17u, 288u}) {
    std::vector<double> values(n);
    for (double& v : values) v = kLevels[rng.UniformInt(std::size(kLevels))];
    for (int step = 0; step <= 40; ++step) {
      const double q = step / 40.0;
      EXPECT_EQ(Bits(stats::Quantile(values, q)),
                Bits(SortedQuantile(values, q)))
          << "n=" << n << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace doppler
