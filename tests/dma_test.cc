// Tests for the DMA integration layer: preprocessing, the end-to-end
// recommendation pipeline, the resource-use report, and the batch
// assessment service.

#include <gtest/gtest.h>

#include "dma/assessment.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "workload/generator.h"

namespace doppler::dma {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// ----------------------------------------------------------- Preprocess.

TEST(PreprocessTest, DatabaseTraceRebinnedToDmaCadence) {
  telemetry::PerfTrace raw(60);
  ASSERT_TRUE(raw.SetSeries(ResourceDim::kCpu,
                            std::vector<double>(600, 2.0)).ok());
  const DataPreprocessingModule module;
  StatusOr<telemetry::PerfTrace> prepared = module.PrepareDatabaseTrace(raw);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->interval_seconds(), telemetry::kDmaIntervalSeconds);
  EXPECT_EQ(prepared->num_samples(), 60u);
}

TEST(PreprocessTest, AlreadyAtCadenceIsPassThrough) {
  telemetry::PerfTrace raw(telemetry::kDmaIntervalSeconds);
  ASSERT_TRUE(raw.SetSeries(ResourceDim::kCpu, {1, 2, 3}).ok());
  const DataPreprocessingModule module;
  StatusOr<telemetry::PerfTrace> prepared = module.PrepareDatabaseTrace(raw);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->Values(ResourceDim::kCpu),
            (std::vector<double>{1, 2, 3}));
}

TEST(PreprocessTest, InstanceTraceSumsDatabases) {
  telemetry::PerfTrace db1(60);
  telemetry::PerfTrace db2(60);
  ASSERT_TRUE(db1.SetSeries(ResourceDim::kCpu,
                            std::vector<double>(600, 1.0)).ok());
  ASSERT_TRUE(db2.SetSeries(ResourceDim::kCpu,
                            std::vector<double>(600, 2.0)).ok());
  const DataPreprocessingModule module;
  StatusOr<telemetry::PerfTrace> instance =
      module.PrepareInstanceTrace({db1, db2});
  ASSERT_TRUE(instance.ok());
  EXPECT_DOUBLE_EQ(instance->Values(ResourceDim::kCpu)[0], 3.0);
}

TEST(PreprocessTest, GroupModelOfflineFitHasGroups) {
  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  StatusOr<core::GroupModel> model =
      FitGroupModelOffline(catalog, pricing, estimator, Deployment::kSqlDb,
                           /*num_customers=*/60, /*seed=*/3);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->AllGroups().empty());
  EXPECT_GE(model->global_mean(), 0.0);
  EXPECT_LE(model->global_mean(), 1.0);
}

// --------------------------------------------------------------- Pipeline.

class PipelineFixture : public ::testing::Test {
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

  static SkuRecommendationPipeline* pipeline_;
};

SkuRecommendationPipeline* PipelineFixture::pipeline_ = nullptr;

TEST_F(PipelineFixture, EndToEndDbAssessment) {
  AssessmentRequest request;
  request.customer_id = "contoso";
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(1, 0.5), RawDbTrace(2, 0.4)};
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->customer_id, "contoso");
  EXPECT_EQ(outcome->elastic.sku.deployment, Deployment::kSqlDb);
  EXPECT_EQ(outcome->instance_trace.interval_seconds(),
            telemetry::kDmaIntervalSeconds);
  // Baseline also found something for this modest workload.
  EXPECT_TRUE(outcome->baseline.ok());
  EXPECT_FALSE(outcome->confidence.has_value());  // Not requested.
  EXPECT_FALSE(outcome->rightsizing.has_value());
}

TEST_F(PipelineFixture, MiAssessmentDefaultsLayoutFromStorage) {
  AssessmentRequest request;
  request.customer_id = "fabrikam";
  request.target = Deployment::kSqlMi;
  request.database_traces = {RawDbTrace(3, 1.0)};
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->elastic.sku.deployment, Deployment::kSqlMi);
}

TEST_F(PipelineFixture, ConfidenceComputedWhenRequested) {
  AssessmentRequest request;
  request.customer_id = "adventureworks";
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(4, 0.3)};
  request.compute_confidence = true;
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->confidence.has_value());
  EXPECT_GT(outcome->confidence->score, 0.0);
  EXPECT_LE(outcome->confidence->score, 1.0);
}

TEST_F(PipelineFixture, RightSizingForCloudCustomer) {
  AssessmentRequest request;
  request.customer_id = "overprov";
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(5, 0.2)};
  request.current_sku_id = "DB_GP_Gen5_40";
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->rightsizing.has_value());
  EXPECT_TRUE(outcome->rightsizing->over_provisioned);
  EXPECT_GT(outcome->rightsizing->annual_savings, 0.0);
}

TEST_F(PipelineFixture, EmptyRequestRejected) {
  AssessmentRequest request;
  EXPECT_FALSE(pipeline_->Assess(request).ok());
}

TEST(PipelineTest, CreateRejectsEmptyCatalog) {
  StaticInputs inputs;
  EXPECT_FALSE(SkuRecommendationPipeline::Create(std::move(inputs)).ok());
}

// ----------------------------------------------------------------- Report.

TEST_F(PipelineFixture, RecommendationReportMentionsKeyFacts) {
  AssessmentRequest request;
  request.customer_id = "report";
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(6, 0.5)};
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());

  const std::string report = RenderRecommendationReport(
      outcome->instance_trace, outcome->elastic);
  EXPECT_NE(report.find("Doppler recommendation"), std::string::npos);
  EXPECT_NE(report.find(outcome->elastic.sku.DisplayName()),
            std::string::npos);
  EXPECT_NE(report.find("Price-performance curve"), std::string::npos);
  EXPECT_NE(report.find("cpu"), std::string::npos);
  // The usage report covers every collected dimension.
  for (ResourceDim dim : outcome->instance_trace.PresentDims()) {
    EXPECT_NE(report.find(catalog::ResourceDimName(dim)), std::string::npos);
  }
}

TEST_F(PipelineFixture, CurveReportSamplesLongCurves) {
  AssessmentRequest request;
  request.customer_id = "curve";
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(7, 0.5)};
  StatusOr<AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  const std::string report = RenderCurveReport(outcome->elastic.curve, 10);
  // 10 rows + header + separator, plus plot lines; row budget respected.
  EXPECT_LE(std::count(report.begin(), report.end(), '|') / 5, 14);
}

// -------------------------------------------------------------- Service.

TEST_F(PipelineFixture, AssessmentServiceTracksAdoption) {
  AssessmentService service(pipeline_);
  AssessmentRequest request;
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(8, 0.4), RawDbTrace(9, 0.4)};

  request.customer_id = "a";
  ASSERT_TRUE(service.Assess("Oct-21", request).ok());
  request.customer_id = "b";
  ASSERT_TRUE(service.Assess("Oct-21", request).ok());
  request.customer_id = "c";
  ASSERT_TRUE(service.Assess("Nov-21", request).ok());

  const std::vector<AdoptionRow> report = service.AdoptionReport();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].period, "Oct-21");
  EXPECT_EQ(report[0].unique_instances, 2);
  EXPECT_EQ(report[0].unique_databases, 4);
  EXPECT_GE(report[0].recommendations, 2);
  EXPECT_EQ(report[1].period, "Nov-21");
  EXPECT_EQ(report[1].unique_instances, 1);
  EXPECT_EQ(service.failed_assessments(), 0);
}

TEST_F(PipelineFixture, OutcomesExportToMigrationPlanCsv) {
  AssessmentService service(pipeline_);
  AssessmentRequest request;
  request.target = Deployment::kSqlDb;
  request.database_traces = {RawDbTrace(20, 0.4)};
  request.customer_id = "export-a";
  request.current_sku_id = "DB_GP_Gen5_40";
  std::vector<AssessmentOutcome> outcomes;
  StatusOr<AssessmentOutcome> outcome = service.Assess("Jan-22", request);
  ASSERT_TRUE(outcome.ok());
  outcomes.push_back(*std::move(outcome));

  const CsvTable plan = AssessmentService::OutcomesToCsv(outcomes);
  ASSERT_EQ(plan.num_rows(), 1u);
  StatusOr<std::size_t> id_col = plan.ColumnIndex("customer_id");
  StatusOr<std::size_t> sku_col = plan.ColumnIndex("elastic_sku");
  StatusOr<std::size_t> overprov_col = plan.ColumnIndex("over_provisioned");
  ASSERT_TRUE(id_col.ok());
  ASSERT_TRUE(sku_col.ok());
  ASSERT_TRUE(overprov_col.ok());
  EXPECT_EQ(plan.row(0)[*id_col], "export-a");
  EXPECT_FALSE(plan.row(0)[*sku_col].empty());
  EXPECT_EQ(plan.row(0)[*overprov_col], "1");  // 40 cores for a tiny load.
  // The CSV is self-consistent text.
  EXPECT_TRUE(CsvTable::Parse(plan.ToString()).ok());
}

TEST_F(PipelineFixture, AssessmentServiceCountsFailures) {
  AssessmentService service(pipeline_);
  AssessmentRequest empty;
  empty.customer_id = "broken";
  EXPECT_FALSE(service.Assess("Dec-21", empty).ok());
  EXPECT_EQ(service.failed_assessments(), 1);
  // Batch skips failures and returns successes.
  AssessmentRequest good;
  good.customer_id = "good";
  good.target = Deployment::kSqlDb;
  good.database_traces = {RawDbTrace(10, 0.4)};
  const std::vector<AssessmentOutcome> outcomes =
      service.AssessBatch("Dec-21", {empty, good});
  EXPECT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].customer_id, "good");
}

}  // namespace
}  // namespace doppler::dma
