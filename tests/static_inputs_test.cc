// Tests for the static-input persistence layer (paper §4: profiles and
// SKU limits ship as offline-computed files) and for the kWorkers
// extension dimension (§3.2: the throttling definition extends as more
// counters become available).

#include <string>

#include <gtest/gtest.h>

#include "bitwise_model.h"
#include "private_temp_dir.h"
#include "catalog/catalog.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/static_inputs.h"
#include "sim/replayer.h"
#include "telemetry/trace_io.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// ------------------------------------------------ Group-model CSV.

TEST(StaticInputsTest, GroupModelRoundTrip) {
  core::GroupModel model = *core::GroupModel::Fit(
      {{0, 0.10}, {0, 0.20}, {3, 0.02}, {7, 0.001}, {7, 1.0 / 3.0}});
  StatusOr<core::GroupModel> loaded =
      dma::GroupModelFromCsv(dma::GroupModelToCsv(model));
  ASSERT_TRUE(loaded.ok());
  ExpectBitIdentical(*loaded, model);
  // Unseen groups fall back to the same global mean.
  EXPECT_EQ(Bits(loaded->TargetProbability(12)),
            Bits(model.TargetProbability(12)));
}

TEST(StaticInputsTest, GroupModelFileRoundTrip) {
  core::GroupModel model = *core::GroupModel::Fit({{1, 0.05}, {1, 0.07}});
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/doppler_groups.csv";
  ASSERT_TRUE(dma::SaveGroupModel(model, path).ok());
  StatusOr<core::GroupModel> loaded = dma::LoadGroupModel(path);
  ASSERT_TRUE(loaded.ok());
  ExpectBitIdentical(*loaded, model);
}

TEST(StaticInputsTest, GroupModelRejectsMalformedCsv) {
  CsvTable missing({"group_id", "count"});
  ASSERT_TRUE(missing.AddRow({"0", "1"}).ok());
  EXPECT_FALSE(dma::GroupModelFromCsv(missing).ok());

  CsvTable bad_number({"group_id", "count", "mean_probability",
                       "std_probability"});
  ASSERT_TRUE(bad_number.AddRow({"0", "1", "abc", "0"}).ok());
  EXPECT_FALSE(dma::GroupModelFromCsv(bad_number).ok());

  // Only the pseudo-row: no groups.
  CsvTable empty({"group_id", "count", "mean_probability",
                  "std_probability"});
  ASSERT_TRUE(empty.AddRow({"-1", "0", "0.1", "0"}).ok());
  EXPECT_FALSE(dma::GroupModelFromCsv(empty).ok());
}

// Every number in a static input is finite, and an integer column holds
// an integer that fits an int: nothing is truncated or wrapped.
TEST(StaticInputsTest, NonFiniteAndNonIntegerCellsRejected) {
  const auto group_model = [](const char* id, const char* count,
                              const char* mean) {
    CsvTable table({"group_id", "count", "mean_probability",
                    "std_probability"});
    EXPECT_TRUE(table.AddRow({"-1", "0", "0.05", "0"}).ok());
    EXPECT_TRUE(table.AddRow({id, count, mean, "0.01"}).ok());
    return dma::GroupModelFromCsv(table).status();
  };
  EXPECT_TRUE(group_model("1", "2", "0.07").ok());
  EXPECT_EQ(group_model("1", "2", "nan").message(),
            "not a finite number: 'nan'");
  EXPECT_EQ(group_model("1", "2", "-inf").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(group_model("1.5", "2", "0.07").message(),
            "not an int: '1.5'");
  EXPECT_EQ(group_model("1", "3e9", "0.07").message(),
            "not an int: '3e9'");

  const CsvTable skus = dma::CatalogToCsv(catalog::BuildAzureLikeCatalog());
  const auto with_cell = [&skus](const std::string& column,
                                 const std::string& cell) {
    CsvTable edited(skus.header());
    const std::size_t c = *skus.ColumnIndex(column);
    for (std::size_t r = 0; r < skus.num_rows(); ++r) {
      std::vector<std::string> row = skus.row(r);
      if (r == 0) row[c] = cell;
      EXPECT_TRUE(edited.AddRow(std::move(row)).ok());
    }
    return dma::CatalogFromCsv(edited).status();
  };
  EXPECT_TRUE(with_cell("price_per_hour", "1.5").ok());
  EXPECT_EQ(with_cell("price_per_hour", "nan").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with_cell("max_iops", "inf").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(with_cell("vcores", "2.9").message(), "not an int: '2.9'");

  CsvTable layout({"name", "size_gib"});
  ASSERT_TRUE(layout.AddRow({"a.mdf", "nan"}).ok());
  EXPECT_EQ(dma::LayoutFromCsv(layout).status().message(),
            "not a finite number: 'nan'");
}

TEST(StaticInputsTest, FromStatsRejectsDuplicates) {
  core::GroupStats a;
  a.group_id = 2;
  EXPECT_FALSE(core::GroupModel::FromStats({a, a}, 0.1).ok());
  EXPECT_FALSE(core::GroupModel::FromStats({}, 0.1).ok());
}

// --------------------------------------------------- Catalog CSV.

TEST(StaticInputsTest, CatalogRoundTripPreservesEverySku) {
  catalog::CatalogOptions options;
  options.include_serverless = true;
  options.include_hyperscale = true;
  options.include_sql_vm = true;
  const catalog::SkuCatalog original = catalog::BuildAzureLikeCatalog(options);
  StatusOr<catalog::SkuCatalog> loaded =
      dma::CatalogFromCsv(dma::CatalogToCsv(original));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  for (const catalog::Sku& sku : original.skus()) {
    StatusOr<catalog::Sku> copy = loaded->FindById(sku.id);
    ASSERT_TRUE(copy.ok()) << sku.id;
    EXPECT_EQ(copy->deployment, sku.deployment);
    EXPECT_EQ(copy->tier, sku.tier);
    EXPECT_EQ(copy->hardware, sku.hardware);
    EXPECT_EQ(copy->vcores, sku.vcores);
    EXPECT_NEAR(copy->max_memory_gb, sku.max_memory_gb, 1e-5);
    EXPECT_NEAR(copy->max_iops, sku.max_iops, 1e-5);
    EXPECT_NEAR(copy->max_workers, sku.max_workers, 1e-5);
    EXPECT_NEAR(copy->price_per_hour, sku.price_per_hour, 1e-5);
    EXPECT_EQ(copy->serverless, sku.serverless);
    EXPECT_NEAR(copy->min_vcores, sku.min_vcores, 1e-5);
  }
}

TEST(StaticInputsTest, CatalogFileRoundTripFeedsPipeline) {
  // Offline job writes both artefacts; the appliance cold-starts from
  // files alone.
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string catalog_path = dir.path() + "/doppler_skus.csv";
  const std::string groups_path = dir.path() + "/doppler_prof.csv";
  ASSERT_TRUE(
      dma::SaveCatalog(catalog::BuildAzureLikeCatalog(), catalog_path).ok());
  core::GroupModel model = *core::GroupModel::Fit({{0, 0.02}, {5, 0.08}});
  ASSERT_TRUE(dma::SaveGroupModel(model, groups_path).ok());

  StatusOr<catalog::SkuCatalog> skus = dma::LoadCatalog(catalog_path);
  StatusOr<core::GroupModel> groups = dma::LoadGroupModel(groups_path);
  ASSERT_TRUE(skus.ok());
  ASSERT_TRUE(groups.ok());
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create(
          {*std::move(skus), *std::move(groups)});
  ASSERT_TRUE(pipeline.ok());

  Rng rng(77);
  workload::WorkloadSpec spec;
  spec.name = "cold-start";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.5, 0.03);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 3.0, &rng);
  ASSERT_TRUE(trace.ok());
  dma::AssessmentRequest request;
  request.customer_id = "cold";
  request.target = Deployment::kSqlDb;
  request.database_traces = {*trace};
  EXPECT_TRUE(pipeline->Assess(request).ok());
}

TEST(StaticInputsTest, CatalogRejectsMalformedCsv) {
  CsvTable bad({"id", "deployment"});
  ASSERT_TRUE(bad.AddRow({"X", "SQL DB"}).ok());
  EXPECT_FALSE(dma::CatalogFromCsv(bad).ok());

  CsvTable unknown_enum = dma::CatalogToCsv(catalog::BuildAzureLikeCatalog());
  // Header-only table (no rows) fails too.
  CsvTable empty(unknown_enum.header());
  EXPECT_FALSE(dma::CatalogFromCsv(empty).ok());
}

// ---------------------------------------------------- Layout CSV.

TEST(StaticInputsTest, LayoutRoundTrip) {
  const catalog::FileLayout layout = catalog::UniformLayout(300.0, 3);
  StatusOr<catalog::FileLayout> loaded =
      dma::LayoutFromCsv(dma::LayoutToCsv(layout));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->files.size(), 3u);
  EXPECT_EQ(loaded->files[0].name, "data0.mdf");
  EXPECT_NEAR(loaded->TotalSizeGib(), 300.0, 1e-6);
}

TEST(StaticInputsTest, LayoutRejectsMalformedCsv) {
  CsvTable missing({"name"});
  ASSERT_TRUE(missing.AddRow({"a.mdf"}).ok());
  EXPECT_FALSE(dma::LayoutFromCsv(missing).ok());

  CsvTable negative({"name", "size_gib"});
  ASSERT_TRUE(negative.AddRow({"a.mdf", "-5"}).ok());
  EXPECT_FALSE(dma::LayoutFromCsv(negative).ok());

  CsvTable empty({"name", "size_gib"});
  EXPECT_FALSE(dma::LayoutFromCsv(empty).ok());
}

// ------------------------------------------- kWorkers extension dim.

TEST(WorkersDimTest, NamedAndNotInverted) {
  EXPECT_STREQ(catalog::ResourceDimName(ResourceDim::kWorkers), "workers");
  EXPECT_FALSE(catalog::IsInvertedDim(ResourceDim::kWorkers));
  ResourceDim parsed;
  ASSERT_TRUE(catalog::ParseResourceDim("workers", &parsed));
  EXPECT_EQ(parsed, ResourceDim::kWorkers);
}

TEST(WorkersDimTest, CatalogSkusCarryWorkerCaps) {
  const catalog::SkuCatalog skus = catalog::BuildAzureLikeCatalog();
  for (const catalog::Sku& sku : skus.skus()) {
    EXPECT_NEAR(sku.max_workers, 105.0 * sku.vcores, 1e-9) << sku.id;
    EXPECT_TRUE(sku.Capacities().Has(ResourceDim::kWorkers));
  }
}

TEST(WorkersDimTest, EstimatorCountsWorkerExhaustion) {
  // A workload whose worker demand exceeds a 2-vCore SKU's cap (210) a
  // third of the time.
  telemetry::PerfTrace trace;
  std::vector<double> workers;
  for (int i = 0; i < 300; ++i) workers.push_back(i % 3 == 0 ? 300.0 : 80.0);
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kWorkers, workers).ok());

  const catalog::SkuCatalog skus = catalog::BuildAzureLikeCatalog();
  const catalog::Sku small = *skus.FindById("DB_GP_Gen5_2");
  const catalog::Sku big = *skus.FindById("DB_GP_Gen5_4");
  const core::NonParametricEstimator estimator;
  StatusOr<double> p_small = estimator.Probability(trace, small.Capacities());
  StatusOr<double> p_big = estimator.Probability(trace, big.Capacities());
  ASSERT_TRUE(p_small.ok());
  ASSERT_TRUE(p_big.ok());
  EXPECT_NEAR(*p_small, 1.0 / 3.0, 0.01);
  EXPECT_DOUBLE_EQ(*p_big, 0.0);  // 420 workers cover the 300 peaks.
}

TEST(WorkersDimTest, SimulatorRejectsExcessWorkers) {
  const catalog::SkuCatalog skus = catalog::BuildAzureLikeCatalog();
  const catalog::Sku sku = *skus.FindById("DB_GP_Gen5_2");
  telemetry::PerfTrace demand;
  ASSERT_TRUE(demand
                  .SetSeries(ResourceDim::kWorkers,
                             std::vector<double>(100, 500.0))
                  .ok());
  StatusOr<sim::ReplayResult> replay = sim::ReplayOnSku(demand, sku);
  ASSERT_TRUE(replay.ok());
  EXPECT_DOUBLE_EQ(replay->report.FractionFor(ResourceDim::kWorkers), 1.0);
  // Observed clipped at the cap.
  EXPECT_DOUBLE_EQ(replay->observed.Values(ResourceDim::kWorkers)[0], 210.0);
}

TEST(WorkersDimTest, TraceCsvRoundTripsWorkers) {
  telemetry::PerfTrace trace(600);
  ASSERT_TRUE(
      trace.SetSeries(ResourceDim::kWorkers, {10.0, 20.0, 30.0}).ok());
  StatusOr<telemetry::PerfTrace> parsed =
      telemetry::TraceFromCsv(telemetry::TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Values(ResourceDim::kWorkers),
            (std::vector<double>{10.0, 20.0, 30.0}));
}

}  // namespace
}  // namespace doppler
