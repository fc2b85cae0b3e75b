// Tests for the elastic and baseline recommenders, the bootstrap
// confidence score, and right-sizing.

#include <algorithm>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/confidence.h"
#include "core/recommender.h"
#include "core/rightsizing.h"
#include "dma/preprocess.h"
#include "stats/bootstrap.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace doppler::core {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::ServiceTier;

// Shared engine components, built once for the whole file (fitting the
// group model generates a fleet, which is the expensive part).
class RecommenderFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new catalog::SkuCatalog(catalog::BuildAzureLikeCatalog());
    pricing_ = new catalog::DefaultPricing();
    estimator_ = new NonParametricEstimator();
    StatusOr<GroupModel> model = dma::FitGroupModelOffline(
        *catalog_, *pricing_, *estimator_, Deployment::kSqlDb,
        /*num_customers=*/100, /*seed=*/5);
    ASSERT_TRUE(model.ok());
    group_model_ = new GroupModel(*std::move(model));
    db_profiler_ = new CustomerProfiler(
        std::make_shared<ThresholdingStrategy>(),
        workload::ProfilingDims(Deployment::kSqlDb));
    mi_profiler_ = new CustomerProfiler(
        std::make_shared<ThresholdingStrategy>(),
        workload::ProfilingDims(Deployment::kSqlMi));
    compiled_ = new catalog::CompiledCatalog(
        catalog::CompiledCatalog::Compile(*catalog_, pricing_));
    recommender_ = new ElasticRecommender(compiled_, estimator_, db_profiler_,
                                          group_model_);
    mi_recommender_ = new ElasticRecommender(compiled_, estimator_,
                                             mi_profiler_, group_model_);
    baseline_ = new BaselineRecommender(compiled_);
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete mi_recommender_;
    delete recommender_;
    delete compiled_;
    delete mi_profiler_;
    delete db_profiler_;
    delete group_model_;
    delete estimator_;
    delete pricing_;
    delete catalog_;
  }

  // A tiny steady workload that any SKU satisfies.
  static telemetry::PerfTrace TinyTrace(std::uint64_t seed) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "tiny";
    spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.3, 0.02);
    spec.dims[ResourceDim::kMemoryGb] =
        workload::DimensionSpec::Steady(2.0, 0.02);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::Steady(100.0, 0.02);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.02);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 7.0, &rng);
    EXPECT_TRUE(trace.ok());
    return *std::move(trace);
  }

  // A workload with spiky CPU that a mid-ladder SKU hosts with some
  // throttling.
  static telemetry::PerfTrace SpikyTrace(std::uint64_t seed) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "spiky";
    workload::DimensionSpec cpu =
        workload::DimensionSpec::Spiky(2.0, 9.0, 1.0, 30.0);
    cpu.base_amplitude = 3.0;
    spec.dims[ResourceDim::kCpu] = cpu;
    spec.dims[ResourceDim::kMemoryGb] =
        workload::DimensionSpec::DailyPeriodic(20.0, 12.0);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(1500.0, 900.0);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.03);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 10.0, &rng);
    EXPECT_TRUE(trace.ok());
    return *std::move(trace);
  }

  static catalog::SkuCatalog* catalog_;
  static catalog::DefaultPricing* pricing_;
  static catalog::CompiledCatalog* compiled_;
  static NonParametricEstimator* estimator_;
  static GroupModel* group_model_;
  static CustomerProfiler* db_profiler_;
  static CustomerProfiler* mi_profiler_;
  static ElasticRecommender* recommender_;
  static ElasticRecommender* mi_recommender_;
  static BaselineRecommender* baseline_;
};

catalog::SkuCatalog* RecommenderFixture::catalog_ = nullptr;
catalog::DefaultPricing* RecommenderFixture::pricing_ = nullptr;
catalog::CompiledCatalog* RecommenderFixture::compiled_ = nullptr;
NonParametricEstimator* RecommenderFixture::estimator_ = nullptr;
GroupModel* RecommenderFixture::group_model_ = nullptr;
CustomerProfiler* RecommenderFixture::db_profiler_ = nullptr;
CustomerProfiler* RecommenderFixture::mi_profiler_ = nullptr;
ElasticRecommender* RecommenderFixture::recommender_ = nullptr;
ElasticRecommender* RecommenderFixture::mi_recommender_ = nullptr;
BaselineRecommender* RecommenderFixture::baseline_ = nullptr;

// ------------------------------------------------------------- Elastic.

TEST_F(RecommenderFixture, FlatCurveGetsCheapestSku) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(1));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->curve_shape, CurveShape::kFlat);
  // The cheapest DB SKU in the catalog is the Gen5 GP 2-core.
  EXPECT_EQ(rec->sku.id, "DB_GP_Gen5_2");
  EXPECT_LT(rec->throttling_probability, 0.02);
  EXPECT_NE(rec->rationale.find("flat"), std::string::npos);
  EXPECT_EQ(rec->group_id, -1);  // Profiling skipped on flat curves.
}

TEST_F(RecommenderFixture, ComplexCurveUsesGroupTarget) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(SpikyTrace(2));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->curve_shape, CurveShape::kComplex);
  EXPECT_GE(rec->group_id, 0);
  EXPECT_LE(rec->throttling_probability, rec->group_target + 1e-9);
  EXPECT_FALSE(rec->curve.empty());
  EXPECT_NE(rec->rationale.find("group"), std::string::npos);
}

TEST_F(RecommenderFixture, ElasticCheaperThanOrEqualBaselineOnSpiky) {
  // The elastic strategy negotiates spikes away; the baseline provisions
  // for the 95th percentile (paper §2: baseline over-provisions).
  const telemetry::PerfTrace trace = SpikyTrace(3);
  StatusOr<Recommendation> elastic = recommender_->RecommendDb(trace);
  StatusOr<Recommendation> base =
      baseline_->Recommend(trace, Deployment::kSqlDb);
  ASSERT_TRUE(elastic.ok());
  ASSERT_TRUE(base.ok());
  EXPECT_LE(elastic->monthly_cost, base->monthly_cost + 1e-9);
}

TEST_F(RecommenderFixture, LatencySensitiveWorkloadGetsBc) {
  Rng rng(4);
  workload::WorkloadSpec spec;
  spec.name = "latency-sensitive";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(1.0, 0.02);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(1.8, 0.05);  // Below the 5 ms GP floor.
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 7.0, &rng);
  ASSERT_TRUE(trace.ok());
  StatusOr<Recommendation> rec = recommender_->RecommendDb(*trace);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->sku.tier, ServiceTier::kBusinessCritical);
}

TEST_F(RecommenderFixture, MiPathUsesLayout) {
  const telemetry::PerfTrace trace = SpikyTrace(5);
  const catalog::FileLayout layout = catalog::UniformLayout(400.0, 4);
  StatusOr<Recommendation> rec = mi_recommender_->RecommendMi(trace, layout);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->sku.deployment, Deployment::kSqlMi);
  // Dispatching overload agrees.
  StatusOr<Recommendation> dispatched =
      mi_recommender_->Recommend(trace, Deployment::kSqlMi, layout);
  ASSERT_TRUE(dispatched.ok());
  EXPECT_EQ(dispatched->sku.id, rec->sku.id);
}

TEST_F(RecommenderFixture, EmptyTraceRejected) {
  EXPECT_FALSE(recommender_->RecommendDb(telemetry::PerfTrace()).ok());
}

// ------------------------------------------------------------- Baseline.

TEST_F(RecommenderFixture, BaselineScalarRequirementsUseQuantiles) {
  telemetry::PerfTrace trace;
  std::vector<double> cpu(100);
  for (int i = 0; i < 100; ++i) cpu[i] = i + 1;  // 1..100.
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  std::vector<double> latency(100);
  for (int i = 0; i < 100; ++i) latency[i] = 10.0 - i * 0.05;  // 10 .. 5.05.
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, latency).ok());

  StatusOr<catalog::ResourceVector> needs =
      baseline_->ScalarRequirements(trace);
  ASSERT_TRUE(needs.ok());
  EXPECT_NEAR(needs->Get(ResourceDim::kCpu), 95.05, 0.01);
  // Latency uses the LOW quantile: the tightest requirement.
  EXPECT_NEAR(needs->Get(ResourceDim::kIoLatencyMs), 5.2975, 0.01);
}

TEST_F(RecommenderFixture, BaselineFailsWhenNothingFits) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu,
                              std::vector<double>(100, 500.0)).ok());
  EXPECT_EQ(baseline_->Recommend(trace, Deployment::kSqlDb).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecommenderFixture, BaselinePicksCheapestSatisfying) {
  const telemetry::PerfTrace trace = TinyTrace(6);
  StatusOr<Recommendation> rec =
      baseline_->Recommend(trace, Deployment::kSqlDb);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->sku.id, "DB_GP_Gen5_2");
}

TEST_F(RecommenderFixture, BaselineMaxQuantileMoreConservative) {
  const BaselineRecommender max_baseline(compiled_, 1.0);
  const telemetry::PerfTrace trace = SpikyTrace(7);
  StatusOr<Recommendation> p95 =
      baseline_->Recommend(trace, Deployment::kSqlDb);
  StatusOr<Recommendation> p100 =
      max_baseline.Recommend(trace, Deployment::kSqlDb);
  ASSERT_TRUE(p95.ok());
  ASSERT_TRUE(p100.ok());
  EXPECT_GE(p100->monthly_cost, p95->monthly_cost);
}

// ------------------------------------------------------------ Confidence.

TEST_F(RecommenderFixture, StableWorkloadHasHighConfidence) {
  const telemetry::PerfTrace trace = TinyTrace(8);
  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  ConfidenceOptions options;
  options.runs = 12;
  options.window_days = 2.0;
  Rng rng(9);
  const Recommendation original = *recommend(trace);
  EXPECT_EQ(original.sku.id, "DB_GP_Gen5_2");
  StatusOr<ConfidenceResult> result =
      ScoreConfidence(trace, original, recommend, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->runs, 12);
  EXPECT_GT(result->score, 0.9);
}

TEST_F(RecommenderFixture, VolatileWorkloadLowerConfidenceOnShortWindows) {
  // A trending workload where a 1-day window sees very different demand
  // than the full 10 days.
  Rng rng(10);
  workload::WorkloadSpec spec;
  spec.name = "trending";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Trending(1.0, 14.0, 0.05);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 10.0, &rng);
  ASSERT_TRUE(trace.ok());

  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  ConfidenceOptions short_window;
  short_window.runs = 16;
  short_window.window_days = 1.0;
  ConfidenceOptions long_window;
  long_window.runs = 16;
  long_window.window_days = 8.0;
  Rng rng_a(11);
  Rng rng_b(11);
  const Recommendation original = *recommend(*trace);
  StatusOr<ConfidenceResult> low =
      ScoreConfidence(*trace, original, recommend, short_window, &rng_a);
  StatusOr<ConfidenceResult> high =
      ScoreConfidence(*trace, original, recommend, long_window, &rng_b);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_LT(low->score, high->score);
}

TEST_F(RecommenderFixture, ConfidenceValidatesInputs) {
  const telemetry::PerfTrace trace = TinyTrace(12);
  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  const Recommendation original = *recommend(trace);
  Rng rng(13);
  ConfidenceOptions options;
  EXPECT_FALSE(ScoreConfidence(trace, original, nullptr, options, &rng).ok());
  EXPECT_FALSE(
      ScoreConfidence(trace, original, recommend, options, nullptr).ok());
  options.runs = 0;
  EXPECT_FALSE(ScoreConfidence(trace, original, recommend, options, &rng).ok());
  options.runs = 4;
  EXPECT_FALSE(ScoreConfidence(telemetry::PerfTrace(), original, recommend,
                               options, &rng)
                   .ok());
}

TEST_F(RecommenderFixture, IidSchemeAlsoWorks) {
  const telemetry::PerfTrace trace = TinyTrace(14);
  RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return recommender_->RecommendDb(t);
  };
  ConfidenceOptions options;
  options.runs = 8;
  options.scheme = BootstrapScheme::kIid;
  Rng rng(15);
  StatusOr<ConfidenceResult> result =
      ScoreConfidence(trace, *recommend(trace), recommend, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->score, 0.9);
}

// The confidence procedure with no shortcut: recommend on the whole trace,
// then draw every run's resample and rerun the recommendation on it. The
// oracle ScoreConfidence must reproduce.
StatusOr<ConfidenceResult> RerunEveryRun(const telemetry::PerfTrace& trace,
                                         const RecommendFn& recommend,
                                         const ConfidenceOptions& options,
                                         Rng* rng) {
  DOPPLER_ASSIGN_OR_RETURN(const Recommendation original, recommend(trace));
  ConfidenceResult result;
  const std::size_t window_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.window_days * 86400.0 /
                                  static_cast<double>(trace.interval_seconds())));
  stats::Bootstrap bootstrap(trace.num_samples(), rng);
  for (int run = 0; run < options.runs; ++run) {
    const std::vector<std::size_t> indices =
        options.scheme == BootstrapScheme::kWindow
            ? bootstrap.SampleWindow(window_samples)
            : bootstrap.SampleWithReplacement(trace.num_samples());
    StatusOr<Recommendation> rerun = recommend(trace.Select(indices));
    ++result.runs;
    if (rerun.ok() && rerun->sku.id == original.sku.id) {
      ++result.matching_runs;
    }
  }
  result.score = static_cast<double>(result.matching_runs) /
                 static_cast<double>(result.runs);
  return result;
}

// Scores `trace` both ways from the same seed: ScoreConfidence through a
// call-counting recommend, and the oracle. Returns the counted calls; the
// two results and the generators' next draws must agree.
int ExpectConfidenceMatchesOracle(const ElasticRecommender& recommender,
                                  const telemetry::PerfTrace& trace,
                                  const ConfidenceOptions& options) {
  RecommendFn recommend = [&recommender](const telemetry::PerfTrace& t) {
    return recommender.RecommendDb(t);
  };
  int calls = 0;
  RecommendFn counting = [&](const telemetry::PerfTrace& t) {
    ++calls;
    return recommend(t);
  };
  Rng rng(41);
  Rng oracle_rng(41);
  StatusOr<Recommendation> original = recommend(trace);
  EXPECT_TRUE(original.ok());
  StatusOr<ConfidenceResult> got =
      ScoreConfidence(trace, *original, counting, options, &rng);
  StatusOr<ConfidenceResult> want =
      RerunEveryRun(trace, recommend, options, &oracle_rng);
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(want.ok());
  if (!got.ok() || !want.ok()) return calls;
  EXPECT_EQ(got->runs, want->runs);
  EXPECT_EQ(got->matching_runs, want->matching_runs);
  EXPECT_EQ(got->score, want->score);
  EXPECT_EQ(rng.NextUint64(), oracle_rng.NextUint64());
  return calls;
}

TEST_F(RecommenderFixture, WindowCoveringTheTraceScoresWithoutRerunning) {
  // Seven days at the DMA cadence is exactly the default 7-day window.
  const telemetry::PerfTrace trace = SpikyTrace(42).Window(0, 7 * 144);
  ConfidenceOptions options;
  options.runs = 10;
  EXPECT_EQ(ExpectConfidenceMatchesOracle(*recommender_, trace, options), 0);
  Rng rng(43);
  StatusOr<ConfidenceResult> result = ScoreConfidence(
      trace, *recommender_->RecommendDb(trace),
      [](const telemetry::PerfTrace&) -> StatusOr<Recommendation> {
        return InternalError("no rerun expected");
      },
      options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->window_covers_trace);
  EXPECT_EQ(result->window_days, 7.0);
  EXPECT_EQ(result->score, 1.0);
}

TEST_F(RecommenderFixture, WindowShorterThanTheTraceRerunsEveryRun) {
  // Ten days: every run draws a 7-day (then 2-day) window and reruns.
  const telemetry::PerfTrace trace = SpikyTrace(44);
  ConfidenceOptions options;
  options.runs = 10;
  EXPECT_EQ(ExpectConfidenceMatchesOracle(*recommender_, trace, options),
            options.runs);
  options.window_days = 2.0;
  EXPECT_EQ(ExpectConfidenceMatchesOracle(*recommender_, trace, options),
            options.runs);
}

TEST_F(RecommenderFixture, IidConfidenceMatchesTheOracle) {
  ConfidenceOptions options;
  options.runs = 8;
  options.scheme = BootstrapScheme::kIid;
  // iid resamples are drawn even when the trace is shorter than a window.
  for (const telemetry::PerfTrace& trace :
       {TinyTrace(45), SpikyTrace(46).Window(0, 2 * 144)}) {
    EXPECT_EQ(ExpectConfidenceMatchesOracle(*recommender_, trace, options),
              options.runs);
  }
}

// ----------------------------------------------------------- Rightsizing.

TEST_F(RecommenderFixture, OverProvisionedCustomerDetected) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(16));
  ASSERT_TRUE(rec.ok());
  // Customer runs an 80-core box for a workload a 2-core SKU hosts (the
  // paper's §5.2 example with "$100k in annual savings").
  StatusOr<RightSizingAssessment> assessment =
      AssessRightSizing(rec->curve, "DB_GP_Gen5_80");
  ASSERT_TRUE(assessment.ok());
  EXPECT_TRUE(assessment->over_provisioned);
  EXPECT_GT(assessment->price_headroom, 30.0);
  EXPECT_EQ(assessment->recommended.sku.id, "DB_GP_Gen5_2");
  EXPECT_GT(assessment->annual_savings, 100000.0);
}

TEST_F(RecommenderFixture, WellSizedCustomerNotFlagged) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(17));
  ASSERT_TRUE(rec.ok());
  StatusOr<RightSizingAssessment> assessment =
      AssessRightSizing(rec->curve, "DB_GP_Gen5_2");
  ASSERT_TRUE(assessment.ok());
  EXPECT_FALSE(assessment->over_provisioned);
  EXPECT_NEAR(assessment->price_headroom, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(assessment->monthly_savings, 0.0);
}

TEST_F(RecommenderFixture, ThrottledCustomerIsNotOverProvisioned) {
  // A customer on a SKU that does NOT satisfy their workload is mis-, not
  // over-provisioned, however expensive the SKU.
  const telemetry::PerfTrace trace = SpikyTrace(18);
  StatusOr<Recommendation> rec = recommender_->RecommendDb(trace);
  ASSERT_TRUE(rec.ok());
  // Find an expensive SKU that still throttles (small memory-optimised).
  StatusOr<PricePerformancePoint> cheapest =
      rec->curve.CheapestFullySatisfying();
  ASSERT_TRUE(cheapest.ok());
  for (const PricePerformancePoint& point : rec->curve.points()) {
    if (point.monthly_price > cheapest->monthly_price * 2 &&
        point.performance < 0.99) {
      StatusOr<RightSizingAssessment> assessment =
          AssessRightSizing(rec->curve, point.sku.id);
      ASSERT_TRUE(assessment.ok());
      EXPECT_FALSE(assessment->over_provisioned) << point.sku.id;
      break;
    }
  }
}

TEST_F(RecommenderFixture, RightSizingUnknownSkuFails) {
  StatusOr<Recommendation> rec = recommender_->RecommendDb(TinyTrace(19));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(AssessRightSizing(rec->curve, "NOPE").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace doppler::core
