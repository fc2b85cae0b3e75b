// End-to-end integration scenarios across the full stack: workload
// generation -> collection -> preprocessing -> recommendation ->
// replay validation, mirroring the paper's §5.4 methodology.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/backtest.h"
#include "core/recommender.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "private_temp_dir.h"
#include "sim/replayer.h"
#include "stats/descriptive.h"
#include "telemetry/collector.h"
#include "telemetry/trace_io.h"
#include "workload/benchmark_mix.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// The full §5.4 loop: take a "customer" perf history, synthesise a
// benchmark mix from it (no queries used), replay the synthetic demand on
// the recommended SKU and on a cheaper one, and check the recommended SKU
// throttles little while the cheaper one degrades.
TEST(EndToEnd, SynthesizeReplayValidatesRecommendation) {
  // A mid-size OLTP-ish customer history.
  Rng rng(42);
  workload::WorkloadSpec spec;
  spec.name = "customer";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::DailyPeriodic(3.0, 2.0);
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::Steady(14.0, 0.03);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(2500.0, 1500.0);
  spec.dims[ResourceDim::kLogRateMbps] =
      workload::DimensionSpec::DailyPeriodic(5.0, 3.0);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(6.5, 0.03);
  StatusOr<telemetry::PerfTrace> history =
      workload::GenerateTrace(spec, 14.0, &rng);
  ASSERT_TRUE(history.ok());

  // Synthesise a workload from the history alone.
  StatusOr<workload::SynthesizedWorkload> synth =
      workload::SynthesizeFromHistory(*history);
  ASSERT_TRUE(synth.ok());
  Rng render_rng(43);
  StatusOr<telemetry::PerfTrace> demand =
      workload::RenderDemandTrace(*synth, 7.0, &render_rng);
  ASSERT_TRUE(demand.ok());

  // Recommend from the history.
  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(catalog, &pricing);
  const core::NonParametricEstimator estimator;
  StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
      catalog, pricing, estimator, Deployment::kSqlDb, 60, 21);
  ASSERT_TRUE(model.ok());
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(Deployment::kSqlDb));
  const core::ElasticRecommender recommender(&compiled, &estimator, &profiler,
                                             &*model);
  StatusOr<core::Recommendation> rec = recommender.RecommendDb(*history);
  ASSERT_TRUE(rec.ok());

  // Replay on the recommended SKU: little throttling.
  StatusOr<sim::ReplayResult> on_recommended =
      sim::ReplayOnSku(*demand, rec->sku);
  ASSERT_TRUE(on_recommended.ok());
  EXPECT_LT(on_recommended->report.any_fraction, 0.25);

  // Replay on a SKU several steps cheaper: clearly worse.
  StatusOr<std::size_t> index = rec->curve.IndexOfSku(rec->sku.id);
  ASSERT_TRUE(index.ok());
  if (*index >= 3) {
    const catalog::Sku cheaper = rec->curve.points()[*index - 3].sku;
    StatusOr<sim::ReplayResult> on_cheaper =
        sim::ReplayOnSku(*demand, cheaper);
    ASSERT_TRUE(on_cheaper.ok());
    EXPECT_GT(on_cheaper->report.any_fraction,
              on_recommended->report.any_fraction);
    // And the observed latency degrades (the Fig. 13 signature).
    EXPECT_GE(
        stats::Mean(on_cheaper->observed.Values(ResourceDim::kIoLatencyMs)),
        stats::Mean(
            on_recommended->observed.Values(ResourceDim::kIoLatencyMs)));
  }
}

// Collector -> CSV -> pipeline: the DMA appliance flow, including the
// on-disk staging format.
TEST(EndToEnd, CollectPersistAssess) {
  Rng rng(77);
  workload::WorkloadSpec spec;
  spec.name = "staged";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.8, 0.05);
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::Steady(4.0, 0.03);
  spec.dims[ResourceDim::kIops] = workload::DimensionSpec::Steady(200.0, 0.05);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.5, 0.03);
  const telemetry::DemandSource source =
      workload::MakeDemandSource(spec, 7.0, &rng);

  telemetry::CollectorOptions collector_options;
  collector_options.duration_days = 7.0;
  collector_options.drop_probability = 0.02;
  Rng collector_rng(78);
  StatusOr<telemetry::PerfTrace> collected =
      telemetry::CollectTrace(source, collector_options, &collector_rng);
  ASSERT_TRUE(collected.ok());

  // Stage locally as the appliance does.
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/staged_trace.csv";
  ASSERT_TRUE(telemetry::WriteTraceFile(*collected, path).ok());
  StatusOr<telemetry::PerfTrace> staged = telemetry::ReadTraceFile(path);
  ASSERT_TRUE(staged.ok());

  // Assess through the full pipeline.
  catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
      catalog, pricing, estimator, Deployment::kSqlDb, 50, 31);
  ASSERT_TRUE(model.ok());
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create(
          {std::move(catalog), *std::move(model)});
  ASSERT_TRUE(pipeline.ok());

  dma::AssessmentRequest request;
  request.customer_id = "staged";
  request.target = Deployment::kSqlDb;
  request.database_traces = {*staged};
  request.compute_confidence = true;
  StatusOr<dma::AssessmentOutcome> outcome = pipeline->Assess(request);
  ASSERT_TRUE(outcome.ok());
  // A sub-1-core steady workload lands on the smallest SKU with high
  // confidence.
  EXPECT_EQ(outcome->elastic.sku.id, "DB_GP_Gen5_2");
  ASSERT_TRUE(outcome->confidence.has_value());
  EXPECT_GT(outcome->confidence->score, 0.8);
}

// The paper Fig. 11 scenario: a workload grows, the customer switches
// SKU; curves built before and after the change detect the need.
TEST(EndToEnd, SkuChangeDetectedByCurves) {
  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;

  auto make_trace = [](double cpu, double iops, double latency,
                       std::uint64_t seed) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "changing";
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::DailyPeriodic(cpu, cpu * 0.6);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(iops, iops * 0.6);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(latency, 0.04);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 10.0, &rng);
    EXPECT_TRUE(trace.ok());
    return *std::move(trace);
  };

  // Before: light load, latency-insensitive; after: heavier and
  // latency-bound (the paper's GP 2 -> BC 6 example).
  const telemetry::PerfTrace before = make_trace(0.6, 150.0, 7.5, 1);
  const telemetry::PerfTrace after = make_trace(3.5, 9000.0, 2.2, 2);

  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(catalog, &pricing);
  const catalog::CompiledView candidates =
      compiled.ForDeployment(Deployment::kSqlDb).view();
  StatusOr<core::PricePerformanceCurve> curve_before =
      core::PricePerformanceCurve::Build(before, candidates, pricing,
                                         estimator);
  StatusOr<core::PricePerformanceCurve> curve_after =
      core::PricePerformanceCurve::Build(after, candidates, pricing,
                                         estimator);
  ASSERT_TRUE(curve_before.ok());
  ASSERT_TRUE(curve_after.ok());

  // The original choice satisfied the old workload...
  StatusOr<core::PricePerformancePoint> old_choice =
      curve_before->FindSku("DB_GP_Gen5_2");
  ASSERT_TRUE(old_choice.ok());
  EXPECT_GT(old_choice->performance, 0.99);

  // ...but throttles badly after the change (paper: ">40%").
  StatusOr<core::PricePerformancePoint> old_after =
      curve_after->FindSku("DB_GP_Gen5_2");
  ASSERT_TRUE(old_after.ok());
  EXPECT_GT(old_after->throttling_probability, 0.4);

  // The new cheapest fully satisfying SKU is a Business Critical one.
  StatusOr<core::PricePerformancePoint> new_choice =
      curve_after->CheapestFullySatisfying();
  ASSERT_TRUE(new_choice.ok());
  EXPECT_EQ(new_choice->sku.tier, catalog::ServiceTier::kBusinessCritical);
}

// MI end-to-end through the dataset builder and backtest at small scale —
// exercises the premium-disk path inside the full loop.
TEST(EndToEnd, MiBacktestSmallScale) {
  workload::PopulationOptions options;
  options.num_customers = 60;
  options.deployment = Deployment::kSqlMi;
  options.duration_days = 7.0;
  options.seed = 555;
  StatusOr<std::vector<workload::SyntheticCustomer>> fleet =
      workload::GeneratePopulation(options);
  ASSERT_TRUE(fleet.ok());

  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(catalog, &pricing);
  const core::NonParametricEstimator estimator;
  Rng rng(556);
  StatusOr<core::BacktestDataset> dataset = core::BuildBacktestDataset(
      *std::move(fleet), compiled, estimator, &rng);
  ASSERT_TRUE(dataset.ok());

  // Every labelled choice is an MI SKU.
  for (const core::LabeledCustomer& labeled : dataset->customers) {
    EXPECT_TRUE(labeled.chosen_sku_id.rfind("MI_", 0) == 0)
        << labeled.chosen_sku_id;
  }

  const core::ThresholdingStrategy strategy;
  core::BacktestOptions backtest_options;
  StatusOr<core::BacktestResult> result =
      core::RunBacktest(*dataset, strategy, backtest_options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.6);
}

}  // namespace
}  // namespace doppler
