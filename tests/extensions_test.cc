// Tests for the paper-§7 extensions: serverless / Hyperscale / SQL VM
// offerings with usage-based billing, the Gaussian-copula estimator, the
// feedback loop, the TCO comparison, and the Oracle/PostgreSQL counter
// adapters.

#include <cmath>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/feedback.h"
#include "core/throttling.h"
#include "dma/preprocess.h"
#include "sources/oracle_awr.h"
#include "sources/postgres_stat.h"
#include "stats/normal.h"
#include "tco/tco.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::ServiceTier;

catalog::CatalogOptions ExtendedOptions() {
  catalog::CatalogOptions options;
  options.include_serverless = true;
  options.include_hyperscale = true;
  options.include_sql_vm = true;
  return options;
}

// ------------------------------------------------- Extended offerings.

TEST(ExtendedCatalogTest, NewOfferingsPresentOnlyWhenEnabled) {
  const catalog::SkuCatalog base = catalog::BuildAzureLikeCatalog();
  for (const catalog::Sku& sku : base.skus()) {
    EXPECT_FALSE(sku.serverless);
    EXPECT_NE(sku.tier, ServiceTier::kHyperscale);
    EXPECT_NE(sku.deployment, Deployment::kSqlVm);
  }
  const catalog::SkuCatalog extended =
      catalog::BuildAzureLikeCatalog(ExtendedOptions());
  int serverless = 0, hyperscale = 0, vm = 0;
  for (const catalog::Sku& sku : extended.skus()) {
    serverless += sku.serverless;
    hyperscale += sku.tier == ServiceTier::kHyperscale;
    vm += sku.deployment == Deployment::kSqlVm;
  }
  EXPECT_GE(serverless, 10);
  EXPECT_GE(hyperscale, 10);
  EXPECT_GE(vm, 6);
  EXPECT_GT(extended.size(), base.size());
}

TEST(ExtendedCatalogTest, HyperscaleShape) {
  const catalog::SkuCatalog extended =
      catalog::BuildAzureLikeCatalog(ExtendedOptions());
  StatusOr<catalog::Sku> hs = extended.FindById("DB_HS_Gen5_8");
  ASSERT_TRUE(hs.ok());
  EXPECT_DOUBLE_EQ(hs->max_data_gb, 102400.0);  // 100 TB.
  StatusOr<catalog::Sku> gp = extended.FindById("DB_GP_Gen5_8");
  StatusOr<catalog::Sku> bc = extended.FindById("DB_BC_Gen5_8");
  ASSERT_TRUE(gp.ok());
  ASSERT_TRUE(bc.ok());
  // Priced and IO-positioned between GP and BC.
  EXPECT_GT(hs->price_per_hour, gp->price_per_hour);
  EXPECT_LT(hs->price_per_hour, bc->price_per_hour);
  EXPECT_LT(hs->min_io_latency_ms, gp->min_io_latency_ms);
  EXPECT_GT(hs->min_io_latency_ms, bc->min_io_latency_ms);
}

TEST(ExtendedCatalogTest, VmShape) {
  const catalog::SkuCatalog extended =
      catalog::BuildAzureLikeCatalog(ExtendedOptions());
  StatusOr<catalog::Sku> vm = extended.FindById("VM_Ebdsv5_16");
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(vm->deployment, Deployment::kSqlVm);
  // Local NVMe: the lowest latency floor in the catalog.
  EXPECT_LT(vm->min_io_latency_ms, 1.0);
  const std::vector<catalog::Sku> vms =
      extended.ForDeployment(Deployment::kSqlVm);
  EXPECT_EQ(vms.size(), 8u);
}

TEST(ServerlessPricingTest, IdleWorkloadBillsNearFloor) {
  const catalog::SkuCatalog extended =
      catalog::BuildAzureLikeCatalog(ExtendedOptions());
  StatusOr<catalog::Sku> serverless = extended.FindById("DB_GP_Serverless_8");
  ASSERT_TRUE(serverless.ok());
  const catalog::DefaultPricing pricing;
  // Worst case (no usage info): pegged at max vCores.
  const double max_bill = pricing.MonthlyCost(*serverless);
  // Mostly idle: ~0.4 mean vCores, below the min_vcores floor of 1.
  const double idle_bill = pricing.MonthlyCostForUsage(*serverless, 0.4);
  EXPECT_NEAR(idle_bill,
              serverless->min_vcores * serverless->price_per_vcore_hour * 730,
              1e-6);
  EXPECT_LT(idle_bill, max_bill / 4.0);
  // Busy: clamped at the ceiling.
  const double busy_bill = pricing.MonthlyCostForUsage(*serverless, 50.0);
  EXPECT_NEAR(busy_bill, max_bill, 1e-6);
}

TEST(ServerlessPricingTest, ProvisionedSkusIgnoreUsage) {
  const catalog::SkuCatalog base = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const catalog::Sku gp = *base.FindById("DB_GP_Gen5_8");
  EXPECT_DOUBLE_EQ(pricing.MonthlyCostForUsage(gp, 0.1),
                   pricing.MonthlyCost(gp));
}

TEST(ServerlessCurveTest, SpikyWorkloadPrefersServerless) {
  // A workload idle 95% of the time with occasional 6-core bursts: the
  // serverless SKU's usage bill undercuts every provisioned SKU that can
  // host the bursts.
  Rng rng(7001);
  workload::WorkloadSpec spec;
  spec.name = "dev-db";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Spiky(0.3, 6.0, 1.0, 40.0, 0.05);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.03);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 7.0, &rng);
  ASSERT_TRUE(trace.ok());

  const catalog::SkuCatalog extended =
      catalog::BuildAzureLikeCatalog(ExtendedOptions());
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(extended, &pricing);
  const core::NonParametricEstimator estimator;
  StatusOr<core::PricePerformanceCurve> curve =
      core::PricePerformanceCurve::Build(
          *trace, compiled.ForDeployment(Deployment::kSqlDb).view(), pricing,
          estimator);
  ASSERT_TRUE(curve.ok());
  StatusOr<core::PricePerformancePoint> best =
      curve->CheapestFullySatisfying();
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(best->sku.serverless) << best->sku.DisplayName();

  // A steady always-busy workload flips the preference: provisioned wins.
  workload::WorkloadSpec busy;
  busy.name = "busy-db";
  busy.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(6.0, 0.02);
  busy.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.03);
  Rng rng2(7002);
  StatusOr<telemetry::PerfTrace> busy_trace =
      workload::GenerateTrace(busy, 7.0, &rng2);
  ASSERT_TRUE(busy_trace.ok());
  StatusOr<core::PricePerformanceCurve> busy_curve =
      core::PricePerformanceCurve::Build(
          *busy_trace, compiled.ForDeployment(Deployment::kSqlDb).view(),
          pricing, estimator);
  ASSERT_TRUE(busy_curve.ok());
  StatusOr<core::PricePerformancePoint> busy_best =
      busy_curve->CheapestFullySatisfying();
  ASSERT_TRUE(busy_best.ok());
  EXPECT_FALSE(busy_best->sku.serverless) << busy_best->sku.DisplayName();
}

TEST(ExtendedCurveTest, HugeEstateLandsOnHyperscale) {
  // 20 TB of data: no GP/BC DB SKU can host it; Hyperscale can.
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kStorageGb,
                              std::vector<double>(200, 20000.0)).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu,
                              std::vector<double>(200, 4.0)).ok());
  const catalog::SkuCatalog extended =
      catalog::BuildAzureLikeCatalog(ExtendedOptions());
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(extended, &pricing);
  const core::NonParametricEstimator estimator;
  StatusOr<core::PricePerformanceCurve> curve =
      core::PricePerformanceCurve::Build(
          trace, compiled.ForDeployment(Deployment::kSqlDb).view(), pricing,
          estimator);
  ASSERT_TRUE(curve.ok());
  StatusOr<core::PricePerformancePoint> best =
      curve->CheapestFullySatisfying();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->sku.tier, ServiceTier::kHyperscale);
}

// --------------------------------------------------- Normal helpers.

TEST(NormalTest, CdfQuantileRoundTrip) {
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(stats::NormalCdf(stats::NormalQuantile(p)), p, 1e-7) << p;
  }
  EXPECT_NEAR(stats::NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(stats::NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(stats::NormalCdf(0.0), 0.5, 1e-12);
}

TEST(NormalTest, QuantileClampsExtremes) {
  EXPECT_TRUE(std::isfinite(stats::NormalQuantile(0.0)));
  EXPECT_TRUE(std::isfinite(stats::NormalQuantile(1.0)));
  EXPECT_LT(stats::NormalQuantile(0.0), -6.0);
  EXPECT_GT(stats::NormalQuantile(1.0), 6.0);
}

// ----------------------------------------------- Gaussian copula.

telemetry::PerfTrace TwoDimTrace(double correlation_sign, std::uint64_t seed) {
  // Two dimensions driven by a shared factor: correlation_sign = +1 makes
  // them move together, 0 makes them independent.
  Rng rng(seed);
  std::vector<double> a(4000), b(4000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double shared = rng.Normal();
    const double ia = rng.Normal();
    const double ib = rng.Normal();
    a[i] = 10.0 + 2.0 * (correlation_sign != 0.0 ? shared : ia);
    b[i] = 100.0 + 20.0 * (correlation_sign != 0.0
                               ? correlation_sign * shared
                               : ib);
  }
  telemetry::PerfTrace trace;
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kCpu, std::move(a)).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops, std::move(b)).ok());
  return trace;
}

catalog::ResourceVector TwoDimCaps(double cpu, double iops) {
  catalog::ResourceVector caps;
  caps.Set(ResourceDim::kCpu, cpu);
  caps.Set(ResourceDim::kIops, iops);
  return caps;
}

TEST(CopulaTest, MatchesNonParametricOnIndependentData) {
  const telemetry::PerfTrace trace = TwoDimTrace(0.0, 42);
  const core::NonParametricEstimator exact;
  const core::GaussianCopulaEstimator copula(8000);
  const catalog::ResourceVector caps = TwoDimCaps(12.0, 120.0);
  StatusOr<double> pe = exact.Probability(trace, caps);
  StatusOr<double> pc = copula.Probability(trace, caps);
  ASSERT_TRUE(pe.ok());
  ASSERT_TRUE(pc.ok());
  EXPECT_NEAR(*pe, *pc, 0.04);
}

TEST(CopulaTest, CapturesPositiveDependence) {
  // Perfectly co-moving dimensions: P(A u B) = max marginal, well below
  // the independence combination 1-(1-pa)(1-pb).
  const telemetry::PerfTrace trace = TwoDimTrace(1.0, 43);
  const catalog::ResourceVector caps = TwoDimCaps(12.0, 120.0);

  const core::NonParametricEstimator exact;
  const core::GaussianCopulaEstimator copula(8000);
  const core::KdeEstimator independence;
  StatusOr<double> pe = exact.Probability(trace, caps);
  StatusOr<double> pc = copula.Probability(trace, caps);
  StatusOr<double> pi = independence.Probability(trace, caps);
  ASSERT_TRUE(pe.ok());
  ASSERT_TRUE(pc.ok());
  ASSERT_TRUE(pi.ok());
  // The copula tracks the truth; the independence approximation
  // overestimates the union for co-moving dimensions.
  EXPECT_NEAR(*pc, *pe, 0.04);
  EXPECT_GT(*pi, *pe + 0.04);
}

TEST(CopulaTest, DeterministicForSeed) {
  const telemetry::PerfTrace trace = TwoDimTrace(1.0, 44);
  const catalog::ResourceVector caps = TwoDimCaps(11.0, 110.0);
  const core::GaussianCopulaEstimator a(2000, 5);
  const core::GaussianCopulaEstimator b(2000, 5);
  EXPECT_DOUBLE_EQ(*a.Probability(trace, caps), *b.Probability(trace, caps));
}

TEST(CopulaTest, ErrorsOnDegenerateInput) {
  const core::GaussianCopulaEstimator copula;
  EXPECT_FALSE(copula.Probability(telemetry::PerfTrace(),
                                  TwoDimCaps(1, 1)).ok());
}

TEST(CopulaTest, LatencyInversionHandled) {
  telemetry::PerfTrace trace;
  Rng rng(45);
  std::vector<double> latency(2000);
  for (auto& v : latency) v = 7.0 + rng.Normal(0.0, 0.5);
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, latency).ok());
  catalog::ResourceVector caps;
  caps.Set(ResourceDim::kIoLatencyMs, 5.0);
  const core::GaussianCopulaEstimator copula(4000);
  StatusOr<double> p = copula.Probability(trace, caps);
  ASSERT_TRUE(p.ok());
  EXPECT_LT(*p, 0.02);  // 7 ms habitual latency is fine on a 5 ms floor.
}

// --------------------------------------------------- Feedback loop.

TEST(FeedbackTest, FitWithPriorBlends) {
  core::GroupModel prior =
      *core::GroupModel::Fit({{0, 0.10}, {0, 0.10}, {1, 0.02}});
  // 10 fresh observations at 0.20 for group 0 with prior weight 10:
  // blended = (10*0.10 + 10*0.20) / 20 = 0.15.
  std::vector<std::pair<int, double>> fresh(10, {0, 0.20});
  StatusOr<core::GroupModel> blended =
      core::GroupModel::FitWithPrior(fresh, prior, 10.0);
  ASSERT_TRUE(blended.ok());
  EXPECT_NEAR(blended->TargetProbability(0), 0.15, 1e-12);
  // Group 1 had no fresh data: unchanged.
  EXPECT_NEAR(blended->TargetProbability(1), 0.02, 1e-12);
}

TEST(FeedbackTest, FitWithPriorValidatesAndPassesThrough) {
  core::GroupModel prior = *core::GroupModel::Fit({{0, 0.1}});
  EXPECT_FALSE(core::GroupModel::FitWithPrior({{0, 0.2}}, prior, -1.0).ok());
  StatusOr<core::GroupModel> unchanged =
      core::GroupModel::FitWithPrior({}, prior, 10.0);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_DOUBLE_EQ(unchanged->TargetProbability(0), 0.1);
}

core::MigrationFeedback MakeFeedback(int group, const char* recommended,
                                     const char* adopted, double probability,
                                     double days) {
  core::MigrationFeedback feedback;
  feedback.customer_id = "c";
  feedback.group_id = group;
  feedback.recommended_sku_id = recommended;
  feedback.adopted_sku_id = adopted;
  feedback.adopted_probability = probability;
  feedback.retention_days = days;
  return feedback;
}

TEST(FeedbackTest, MetricsAndRefresh) {
  core::GroupModel initial = *core::GroupModel::Fit({{0, 0.02}});
  core::FeedbackLoop::Options options;
  options.min_feedback_per_refresh = 5;
  options.prior_weight = 5.0;
  core::FeedbackLoop loop(std::move(initial), options);

  // Two non-migrations, eight migrations (six retained, two churned).
  loop.Record(MakeFeedback(0, "A", "", 0.0, 0.0));
  loop.Record(MakeFeedback(0, "A", "", 0.0, 0.0));
  for (int i = 0; i < 6; ++i) {
    loop.Record(MakeFeedback(0, "A", "A", 0.12, 60.0));
  }
  loop.Record(MakeFeedback(0, "A", "B", 0.30, 10.0));
  loop.Record(MakeFeedback(0, "A", "B", 0.30, 5.0));

  EXPECT_NEAR(loop.MigrationRate(), 0.8, 1e-12);
  EXPECT_NEAR(loop.AdoptionRate(), 0.75, 1e-12);
  EXPECT_NEAR(loop.RetentionRate(), 0.75, 1e-12);

  // Refresh consumes the six retained records:
  // target = (5*0.02 + 6*0.12) / 11 = 0.0745...
  ASSERT_TRUE(loop.MaybeRefresh());
  EXPECT_EQ(loop.refreshes(), 1);
  EXPECT_NEAR(loop.model().TargetProbability(0), (5 * 0.02 + 6 * 0.12) / 11.0,
              1e-12);
  // Nothing new: no second refresh.
  EXPECT_FALSE(loop.MaybeRefresh());
}

TEST(FeedbackTest, RefreshRequiresEnoughRetained) {
  core::GroupModel initial = *core::GroupModel::Fit({{0, 0.02}});
  core::FeedbackLoop::Options options;
  options.min_feedback_per_refresh = 3;
  core::FeedbackLoop loop(std::move(initial), options);
  loop.Record(MakeFeedback(0, "A", "A", 0.1, 60.0));
  loop.Record(MakeFeedback(0, "A", "A", 0.1, 1.0));  // Churned: ignored.
  EXPECT_FALSE(loop.MaybeRefresh());
}

// ------------------------------------------------------------- TCO.

TEST(TcoTest, OnPremMonthlyFormula) {
  tco::OnPremCostModel model;
  model.server_capex = 24000.0;
  model.amortization_months = 48.0;
  model.license_per_core_monthly = 200.0;
  model.licensed_cores = 8;
  model.admin_monthly = 1000.0;
  model.facilities_monthly = 400.0;
  model.storage_per_gb_monthly = 0.10;
  EXPECT_DOUBLE_EQ(model.MonthlyCost(500.0),
                   500.0 + 1600.0 + 1000.0 + 400.0 + 50.0);
}

TEST(TcoTest, CompareRanksProviders) {
  Rng rng(9001);
  workload::WorkloadSpec spec;
  spec.name = "tco-db";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::DailyPeriodic(1.0, 0.8);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(300.0, 200.0);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.03);
  spec.dims[ResourceDim::kStorageGb] =
      workload::DimensionSpec::Steady(200.0, 0.01);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 7.0, &rng);
  ASSERT_TRUE(trace.ok());

  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  core::GroupModel groups = *dma::FitGroupModelOffline(
      catalog, pricing, estimator, Deployment::kSqlDb, 50, 3);
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(Deployment::kSqlDb));

  tco::OnPremCostModel on_prem;  // Defaults: a costly 8-core box.
  StatusOr<tco::TcoComparison> comparison = tco::CompareTco(
      *trace, on_prem, catalog, estimator, profiler, groups);
  ASSERT_TRUE(comparison.ok());
  ASSERT_EQ(comparison->clouds.size(), 3u);
  // The flagged best is really the cheapest.
  for (const tco::CloudEstimate& cloud : comparison->clouds) {
    EXPECT_GE(cloud.monthly_cost,
              comparison->clouds[comparison->best_cloud_index].monthly_cost);
  }
  EXPECT_DOUBLE_EQ(
      comparison->best_savings_monthly,
      comparison->on_prem_monthly -
          comparison->clouds[comparison->best_cloud_index].monthly_cost);
  // A light workload on an expensive on-prem box: the cloud should win.
  EXPECT_GT(comparison->best_savings_monthly, 0.0);

  const std::string report = tco::RenderTcoReport(*comparison);
  EXPECT_NE(report.find("Stay on-premises"), std::string::npos);
  EXPECT_NE(report.find("<== best"), std::string::npos);
  EXPECT_NE(report.find("saves"), std::string::npos);
}

TEST(TcoTest, ValidatesInputs) {
  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const core::NonParametricEstimator estimator;
  core::GroupModel groups = *core::GroupModel::Fit({{0, 0.01}});
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(Deployment::kSqlDb));
  tco::OnPremCostModel on_prem;
  EXPECT_FALSE(tco::CompareTco(telemetry::PerfTrace(), on_prem, catalog,
                               estimator, profiler, groups)
                   .ok());
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1.0}).ok());
  EXPECT_FALSE(tco::CompareTco(trace, on_prem, catalog, estimator, profiler,
                               groups, {})
                   .ok());
}

// -------------------------------------------------- Source adapters.

CsvTable AwrCsv() {
  CsvTable table({"t_seconds", "cpu_per_s", "physical_reads_per_s",
                  "physical_writes_per_s", "redo_mb_per_s", "sga_pga_gb",
                  "db_file_seq_read_ms", "db_size_gb"});
  EXPECT_TRUE(
      table.AddRow({"0", "2.5", "800", "200", "4.0", "24", "6.0", "300"})
          .ok());
  EXPECT_TRUE(
      table.AddRow({"600", "3.0", "900", "300", "5.0", "24", "6.5", "301"})
          .ok());
  return table;
}

TEST(SourcesTest, OracleAwrMapsAndAccumulates) {
  StatusOr<telemetry::PerfTrace> trace =
      sources::TraceFromAwrCsv(AwrCsv());
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->id(), "oracle-awr");
  EXPECT_EQ(trace->interval_seconds(), 600);
  EXPECT_EQ(trace->num_samples(), 2u);
  // Reads + writes fold into IOPS.
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kIops)[0], 1000.0);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kIops)[1], 1200.0);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kCpu)[1], 3.0);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kLogRateMbps)[0], 4.0);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kIoLatencyMs)[1], 6.5);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kStorageGb)[0], 300.0);
}

TEST(SourcesTest, PostgresMapsAndAccumulates) {
  CsvTable table({"t_seconds", "cpu_cores", "blks_read_per_s",
                  "temp_blks_per_s", "wal_mb_per_s", "mem_resident_gb",
                  "blk_read_time_ms", "db_size_gb"});
  ASSERT_TRUE(
      table.AddRow({"0", "1.2", "400", "50", "2.0", "8", "4.0", "120"}).ok());
  ASSERT_TRUE(
      table.AddRow({"300", "1.4", "500", "70", "2.4", "8", "4.2", "120"})
          .ok());
  StatusOr<telemetry::PerfTrace> trace =
      sources::TraceFromPostgresCsv(table);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->interval_seconds(), 300);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kIops)[0], 450.0);
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kLogRateMbps)[1], 2.4);
}

TEST(SourcesTest, ForeignTraceFeedsTheEngine) {
  // An AWR export runs straight through curve building: the §2
  // generalisation claim end-to-end.
  StatusOr<telemetry::PerfTrace> trace =
      sources::TraceFromAwrCsv(AwrCsv());
  ASSERT_TRUE(trace.ok());
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled = catalog::CompiledCatalog::Compile(
      catalog::BuildAzureLikeCatalog(), &pricing);
  const core::NonParametricEstimator estimator;
  StatusOr<core::PricePerformanceCurve> curve =
      core::PricePerformanceCurve::Build(
          *trace, compiled.ForDeployment(Deployment::kSqlDb).view(), pricing,
          estimator);
  ASSERT_TRUE(curve.ok());
  EXPECT_TRUE(curve->CheapestFullySatisfying().ok());
}

TEST(SourcesTest, RejectsMalformedExports) {
  // Missing rule column.
  CsvTable missing({"t_seconds", "cpu_per_s"});
  ASSERT_TRUE(missing.AddRow({"0", "1"}).ok());
  EXPECT_FALSE(sources::TraceFromAwrCsv(missing).ok());
  // Bad number.
  CsvTable bad = AwrCsv();
  ASSERT_TRUE(bad.AddRow({"1200", "x", "1", "1", "1", "1", "1", "1"}).ok());
  EXPECT_FALSE(sources::TraceFromAwrCsv(bad).ok());
  // Non-increasing time.
  CsvTable backwards({"t_seconds", "cpu_per_s", "physical_reads_per_s",
                      "physical_writes_per_s", "redo_mb_per_s", "sga_pga_gb",
                      "db_file_seq_read_ms", "db_size_gb"});
  ASSERT_TRUE(
      backwards.AddRow({"600", "1", "1", "1", "1", "1", "1", "1"}).ok());
  ASSERT_TRUE(
      backwards.AddRow({"0", "1", "1", "1", "1", "1", "1", "1"}).ok());
  EXPECT_FALSE(sources::TraceFromAwrCsv(backwards).ok());
  // Empty mapping.
  sources::CounterMapping empty_mapping;
  EXPECT_FALSE(sources::TraceFromForeignCsv(AwrCsv(), empty_mapping).ok());
}

// The adapters share TraceFromCsv's timestamp rule: the cadence is the
// first delta in whole seconds, so rows half a second apart (no whole-
// second cadence) and rows 1e300 s apart (no int64 cadence) are rejected,
// not read as a 0-second or wrapped cadence.
TEST(SourcesTest, ExportsWithoutAWholeSecondCadenceRejected) {
  for (const char* second : {"0.5", "1e300"}) {
    SCOPED_TRACE(second);
    CsvTable table({"t_seconds", "cpu_per_s", "physical_reads_per_s",
                    "physical_writes_per_s", "redo_mb_per_s", "sga_pga_gb",
                    "db_file_seq_read_ms", "db_size_gb"});
    ASSERT_TRUE(table.AddRow({"0", "1", "1", "1", "1", "1", "1", "1"}).ok());
    ASSERT_TRUE(table.AddRow({second, "1", "1", "1", "1", "1", "1", "1"}).ok());
    const Status status = sources::TraceFromAwrCsv(table).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "oracle-awr: timestamps must increase");
  }
}

TEST(SourcesTest, EmptyAndHeaderOnlyExportsRejectedNotCrashed) {
  // Entirely empty table: no columns, no rows.
  EXPECT_FALSE(sources::TraceFromAwrCsv(CsvTable()).ok());
  EXPECT_FALSE(sources::TraceFromPostgresCsv(CsvTable()).ok());
  // Header only, zero data rows.
  CsvTable header_only({"t_seconds", "cpu_per_s", "physical_reads_per_s",
                        "physical_writes_per_s", "redo_mb_per_s",
                        "sga_pga_gb", "db_file_seq_read_ms", "db_size_gb"});
  EXPECT_FALSE(sources::TraceFromAwrCsv(header_only).ok());
}

TEST(SourcesTest, UnknownColumnsOnlyExportRejected) {
  CsvTable unknown({"timestamp", "widgets", "gadgets"});
  ASSERT_TRUE(unknown.AddRow({"0", "1", "2"}).ok());
  EXPECT_FALSE(sources::TraceFromAwrCsv(unknown).ok());
  EXPECT_FALSE(sources::TraceFromPostgresCsv(unknown).ok());
}

TEST(SourcesTest, NonFiniteAndNegativeCellsRejectedWithContext) {
  CsvTable nan_cell = AwrCsv();
  ASSERT_TRUE(
      nan_cell.AddRow({"1200", "nan", "1", "1", "1", "1", "1", "1"}).ok());
  const Status nan_status =
      sources::TraceFromAwrCsv(nan_cell).status();
  EXPECT_EQ(nan_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_status.message().find("data row 3"), std::string::npos);

  CsvTable negative = AwrCsv();
  ASSERT_TRUE(
      negative.AddRow({"1200", "-2.5", "1", "1", "1", "1", "1", "1"}).ok());
  const Status neg_status =
      sources::TraceFromAwrCsv(negative).status();
  EXPECT_EQ(neg_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(neg_status.message().find("negative counter"), std::string::npos);
}

TEST(SourcesTest, RaggedCsvTextRejectedAtParse) {
  // Rows of differing width never reach the adapters: CsvTable::Parse
  // refuses them with a typed Status instead of crashing downstream.
  const std::string ragged =
      "t_seconds,cpu_per_s,physical_reads_per_s\n"
      "0,1.0,100\n"
      "600,2.0\n";
  StatusOr<CsvTable> parsed = CsvTable::Parse(ragged);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace doppler
