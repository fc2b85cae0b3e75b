// Tests for the staged request-context pipeline: manual stage invocation,
// masked subsets (AssessStages / FleetAssessor), the right-sizing skip
// reason, the MI default-layout Config knobs, and byte-identical output
// when many workers read the shared compiled snapshot concurrently.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dma/assessment.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "exec/fleet_assessor.h"
#include "workload/generator.h"

namespace doppler::dma {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

class StageFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    StatusOr<core::GroupModel> model = FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb, 60, 7);
    ASSERT_TRUE(model.ok());
    StaticInputs inputs{std::move(catalog), *std::move(model)};
    StatusOr<SkuRecommendationPipeline> pipeline =
        SkuRecommendationPipeline::Create(std::move(inputs));
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = new SkuRecommendationPipeline(*std::move(pipeline));
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static telemetry::PerfTrace RawDbTrace(std::uint64_t seed, double scale) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "db";
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::DailyPeriodic(0.4 * scale, 0.3 * scale);
    spec.dims[ResourceDim::kMemoryGb] =
        workload::DimensionSpec::Steady(2.0 * scale, 0.03);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(120.0 * scale, 90.0 * scale);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.03);
    spec.dims[ResourceDim::kStorageGb] =
        workload::DimensionSpec::Steady(40.0 * scale, 0.01);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 7.0, 60, &rng);
    EXPECT_TRUE(trace.ok());
    return *std::move(trace);
  }

  static AssessmentRequest DbRequest(const std::string& customer,
                                     std::uint64_t seed) {
    AssessmentRequest request;
    request.customer_id = customer;
    request.target = Deployment::kSqlDb;
    request.database_traces = {RawDbTrace(seed, 0.5),
                               RawDbTrace(seed + 1, 0.4)};
    return request;
  }

  static std::string StableJson(const AssessmentOutcome& outcome) {
    AssessmentJsonOptions options;
    options.include_stage_seconds = false;
    return RenderAssessmentJson(outcome, options);
  }

  static SkuRecommendationPipeline* pipeline_;
};

SkuRecommendationPipeline* StageFixture::pipeline_ = nullptr;

// Running the stage functions by hand over a caller-owned RequestContext
// reproduces Assess() exactly (modulo wall-clock seconds), including the
// conditional confidence and right-sizing stages.
TEST_F(StageFixture, ManualStageInvocationMatchesAssess) {
  AssessmentRequest request = DbRequest("manual", 11);
  request.compute_confidence = true;
  request.current_sku_id = "DB_GP_Gen5_40";

  StatusOr<AssessmentOutcome> whole = pipeline_->Assess(request);
  ASSERT_TRUE(whole.ok());

  RequestContext ctx(request);
  ASSERT_TRUE(pipeline_->StagePreprocess(ctx).ok());
  ASSERT_TRUE(pipeline_->StageQuality(ctx).ok());
  ASSERT_TRUE(pipeline_->StageLayout(ctx).ok());
  ASSERT_TRUE(pipeline_->StageRecommend(ctx).ok());
  ASSERT_TRUE(pipeline_->StageBaseline(ctx).ok());
  ASSERT_TRUE(pipeline_->StageConfidence(ctx).ok());
  ASSERT_TRUE(pipeline_->StageRightsizing(ctx).ok());
  const AssessmentOutcome staged = pipeline_->Finish(ctx);

  EXPECT_EQ(StableJson(staged), StableJson(*whole));
  EXPECT_TRUE(staged.confidence.has_value());
  EXPECT_TRUE(staged.rightsizing.has_value());
  // Conditional stages ran, so they appear in the timing trail.
  ASSERT_EQ(staged.stage_timings.size(), whole->stage_timings.size());
  for (std::size_t i = 0; i < staged.stage_timings.size(); ++i) {
    EXPECT_EQ(staged.stage_timings[i].stage, whole->stage_timings[i].stage);
  }
}

// A recommend-only mask stops after the elastic pick: the baseline keeps
// its "not evaluated" sentinel and no conditional stage output appears,
// even when the request asks for them.
TEST_F(StageFixture, RecommendOnlyMaskSkipsDownstreamStages) {
  AssessmentRequest request = DbRequest("masked", 21);
  request.compute_confidence = true;
  request.current_sku_id = "DB_GP_Gen5_40";

  constexpr StageMask kThroughRecommend =
      kStagePreprocess | kStageQuality | kStageLayout | kStageRecommend;
  StatusOr<AssessmentOutcome> outcome =
      pipeline_->AssessStages(request, kThroughRecommend);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->elastic.sku.id.empty());
  EXPECT_FALSE(outcome->baseline.ok());
  EXPECT_EQ(outcome->baseline.status().message(), "baseline not evaluated");
  EXPECT_FALSE(outcome->confidence.has_value());
  EXPECT_FALSE(outcome->rightsizing.has_value());
  EXPECT_TRUE(outcome->rightsizing_skip_reason.empty());
  // Timing trail lists exactly the timed stages that ran (layout is an
  // untimed resolution step).
  ASSERT_EQ(outcome->stage_timings.size(), 3u);
  EXPECT_EQ(outcome->stage_timings[0].stage, "pipeline.preprocess");
  EXPECT_EQ(outcome->stage_timings[1].stage, "pipeline.quality");
  EXPECT_EQ(outcome->stage_timings[2].stage, "pipeline.recommend");

  // The masked prefix agrees with the same stages of a full assessment.
  StatusOr<AssessmentOutcome> whole = pipeline_->Assess(request);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(outcome->elastic.sku.id, whole->elastic.sku.id);
  EXPECT_EQ(outcome->elastic.monthly_cost, whole->elastic.monthly_cost);
}

// Without the recommend stage, the confidence stage recommends once itself:
// on a trace longer than the bootstrap window its runs agree with that pick
// exactly as often as a full assessment's runs agree with its elastic pick.
TEST_F(StageFixture, ConfidenceWithoutRecommendStageRecommendsItself) {
  Rng rng(31);
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
      workload::DimensionSpec::Steady(6.0);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 14.0, &rng);
  ASSERT_TRUE(trace.ok());
  AssessmentRequest request;
  request.customer_id = "confidence-only";
  request.target = Deployment::kSqlDb;
  request.database_traces = {*std::move(trace)};
  request.compute_confidence = true;

  constexpr StageMask kSkipRecommend =
      kStagePreprocess | kStageQuality | kStageLayout | kStageConfidence;
  StatusOr<AssessmentOutcome> outcome =
      pipeline_->AssessStages(request, kSkipRecommend);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->elastic.sku.id.empty());
  ASSERT_TRUE(outcome->confidence.has_value());
  EXPECT_FALSE(outcome->confidence->window_covers_trace);

  StatusOr<AssessmentOutcome> whole = pipeline_->Assess(request);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(whole->confidence.has_value());
  EXPECT_GT(whole->confidence->matching_runs, 0);
  EXPECT_LT(whole->confidence->matching_runs, whole->confidence->runs);
  EXPECT_EQ(outcome->confidence->matching_runs,
            whole->confidence->matching_runs);
  EXPECT_EQ(outcome->confidence->score, whole->confidence->score);
}

// The fleet assessor's masked overload applies the stage mask to every
// request of the batch and still keeps results in request order.
TEST_F(StageFixture, FleetAssessorHonoursStageMask) {
  std::vector<AssessmentRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(DbRequest("fleet-" + std::to_string(i), 31 + 2 * i));
  }
  constexpr StageMask kThroughRecommend =
      kStagePreprocess | kStageQuality | kStageLayout | kStageRecommend;
  const exec::FleetAssessor assessor(pipeline_, /*jobs=*/2);
  const std::vector<StatusOr<AssessmentOutcome>> results =
      assessor.AssessAll(requests, kThroughRecommend);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i]->customer_id, requests[i].customer_id);
    EXPECT_FALSE(results[i]->baseline.ok());
    StatusOr<AssessmentOutcome> serial =
        pipeline_->AssessStages(requests[i], kThroughRecommend);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(StableJson(*results[i]), StableJson(*serial));
  }
}

// A current SKU that is not on the price-performance curve no longer fails
// silently: the assessment succeeds and the outcome records why the
// right-sizing verdict is missing, and the JSON report surfaces it.
TEST_F(StageFixture, RightsizingFailureRecordsSkipReason) {
  AssessmentRequest request = DbRequest("skip", 41);
  request.current_sku_id = "NOT_A_REAL_SKU";
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->rightsizing.has_value());
  EXPECT_FALSE(outcome->rightsizing_skip_reason.empty());
  EXPECT_NE(outcome->rightsizing_skip_reason.find("NOT_A_REAL_SKU"),
            std::string::npos);
  const std::string json = StableJson(*outcome);
  EXPECT_NE(json.find("\"rightsizing_skipped\""), std::string::npos);

  // A resolvable current SKU leaves the skip reason empty (and the key out
  // of the report).
  AssessmentRequest ok_request = DbRequest("kept", 41);
  ok_request.current_sku_id = "DB_GP_Gen5_40";
  StatusOr<AssessmentOutcome> kept = pipeline_->Assess(ok_request);
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->rightsizing.has_value());
  EXPECT_TRUE(kept->rightsizing_skip_reason.empty());
  EXPECT_EQ(StableJson(*kept).find("\"rightsizing_skipped\""),
            std::string::npos);
}

// The MI default-layout knobs are plumbed through the layout stage: when
// the trace reports no storage counter the assumed size is
// mi_default_storage_gb, and either way the provisioned file carries the
// mi_layout_headroom multiplier.
TEST(StageConfigTest, MiLayoutKnobsShapeTheDefaultLayout) {
  catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  StatusOr<core::GroupModel> model = FitGroupModelOffline(
      catalog, pricing, estimator, Deployment::kSqlMi, 30, 3);
  ASSERT_TRUE(model.ok());
  SkuRecommendationPipeline::Config config;
  config.num_threads = 1;
  config.mi_default_storage_gb = 48.0;
  config.mi_layout_headroom = 1.5;
  StaticInputs inputs{std::move(catalog), *std::move(model)};
  StatusOr<SkuRecommendationPipeline> pipeline =
      SkuRecommendationPipeline::Create(std::move(inputs), config);
  ASSERT_TRUE(pipeline.ok());

  // No storage counter anywhere: the configured default size applies.
  telemetry::PerfTrace no_storage(telemetry::kDmaIntervalSeconds);
  ASSERT_TRUE(no_storage
                  .SetSeries(ResourceDim::kCpu,
                             std::vector<double>(32, 2.0))
                  .ok());
  ASSERT_TRUE(no_storage
                  .SetSeries(ResourceDim::kMemoryGb,
                             std::vector<double>(32, 8.0))
                  .ok());
  ASSERT_TRUE(no_storage
                  .SetSeries(ResourceDim::kIops,
                             std::vector<double>(32, 400.0))
                  .ok());
  AssessmentRequest request;
  request.customer_id = "mi-default";
  request.target = Deployment::kSqlMi;
  request.database_traces = {no_storage};
  RequestContext ctx(request);
  ASSERT_TRUE(pipeline->StagePreprocess(ctx).ok());
  ASSERT_TRUE(pipeline->StageLayout(ctx).ok());
  ASSERT_EQ(ctx.layout.files.size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.layout.files[0].size_gib, 48.0 * 1.5);

  // With an observed storage counter the peak allocation wins, still under
  // the configured headroom.
  telemetry::PerfTrace with_storage = no_storage;
  ASSERT_TRUE(with_storage
                  .SetSeries(ResourceDim::kStorageGb,
                             std::vector<double>(32, 200.0))
                  .ok());
  AssessmentRequest sized = request;
  sized.database_traces = {with_storage};
  RequestContext sized_ctx(sized);
  ASSERT_TRUE(pipeline->StagePreprocess(sized_ctx).ok());
  ASSERT_TRUE(pipeline->StageLayout(sized_ctx).ok());
  ASSERT_EQ(sized_ctx.layout.files.size(), 1u);
  EXPECT_DOUBLE_EQ(sized_ctx.layout.files[0].size_gib, 200.0 * 1.5);

  // An explicit request layout is never second-guessed by the knobs.
  AssessmentRequest explicit_layout = sized;
  explicit_layout.layout = catalog::UniformLayout(500.0, 2);
  RequestContext explicit_ctx(explicit_layout);
  ASSERT_TRUE(pipeline->StagePreprocess(explicit_ctx).ok());
  ASSERT_TRUE(pipeline->StageLayout(explicit_ctx).ok());
  ASSERT_EQ(explicit_ctx.layout.files.size(), 2u);
  EXPECT_DOUBLE_EQ(explicit_ctx.layout.files[0].size_gib, 250.0);
}

// Many fleet workers reading the one shared compiled snapshot produce
// byte-identical reports to a serial run — the TSan target for the shared
// immutable snapshot.
TEST_F(StageFixture, ConcurrentFleetMatchesSerialByteForByte) {
  std::vector<AssessmentRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(DbRequest("conc-" + std::to_string(i), 101 + 3 * i));
  }
  const exec::FleetAssessor serial(pipeline_, /*jobs=*/1);
  const exec::FleetAssessor wide(pipeline_, /*jobs=*/8);
  const std::vector<StatusOr<AssessmentOutcome>> serial_results =
      serial.AssessAll(requests);
  const std::vector<StatusOr<AssessmentOutcome>> wide_results =
      wide.AssessAll(requests);
  ASSERT_EQ(serial_results.size(), wide_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    ASSERT_TRUE(serial_results[i].ok());
    ASSERT_TRUE(wide_results[i].ok());
    EXPECT_EQ(StableJson(*serial_results[i]), StableJson(*wide_results[i]));
  }
}

}  // namespace
}  // namespace doppler::dma
