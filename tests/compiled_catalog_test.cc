// Unit tests for the compiled catalog snapshot: price order, the memoized
// capacity vectors against the Sku records, the precomputed premium-disk
// limit table against premium_disk.cc, and bit-for-bit determinism of the
// compiled engine paths (curve build, MI filter, recommenders) across
// independently compiled snapshots, including the target's per-trace
// serverless repricing hook. The BatchEvaluationTest suite pins the curve
// build's per-candidate scoring: exact agreement with Probability at any
// job count, first failure in candidate order, and schedule-independent
// counters.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "catalog/file_layout.h"
#include "catalog/premium_disk.h"
#include "catalog/pricing.h"
#include "core/mi_filter.h"
#include "core/price_performance.h"
#include "core/profiler.h"
#include "core/recommender.h"
#include "core/throttling.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace doppler::catalog {
namespace {

using core::CompiledCandidateRef;
using core::MiCompiledFilterResult;
using core::PricePerformanceCurve;

const std::array<Deployment, 2> kPopulatedDeployments = {Deployment::kSqlDb,
                                                         Deployment::kSqlMi};

telemetry::PerfTrace MixedTrace() {
  telemetry::PerfTrace trace;
  EXPECT_TRUE(
      trace.SetSeries(ResourceDim::kCpu, {2, 6, 10, 14, 30, 4, 8, 2}).ok());
  EXPECT_TRUE(trace
                  .SetSeries(ResourceDim::kIops,
                             {300, 900, 2500, 5500, 9000, 400, 1200, 250})
                  .ok());
  EXPECT_TRUE(trace
                  .SetSeries(ResourceDim::kMemoryGb,
                             {8, 20, 44, 80, 150, 12, 24, 6})
                  .ok());
  EXPECT_TRUE(trace
                  .SetSeries(ResourceDim::kStorageGb,
                             {200, 210, 220, 230, 240, 250, 260, 270})
                  .ok());
  return trace;
}

// ------------------------------------------------- Snapshot unit tests.

TEST(CompiledCatalogTest, PriceOrderIsBilledPriceThenId) {
  const SkuCatalog catalog = BuildAzureLikeCatalog();
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);

  for (Deployment deployment : kPopulatedDeployments) {
    const CompiledDeployment& dep = compiled.ForDeployment(deployment);
    ASSERT_FALSE(dep.empty());
    for (std::size_t i = 0; i + 1 < dep.size(); ++i) {
      const CompiledEntry& a = dep.entries()[i];
      const CompiledEntry& b = dep.entries()[i + 1];
      const bool ordered =
          a.monthly_price < b.monthly_price ||
          (a.monthly_price == b.monthly_price && a.sku->id < b.sku->id);
      EXPECT_TRUE(ordered) << a.sku->id << " before " << b.sku->id;
    }
    for (const CompiledEntry& entry : dep.view()) {
      EXPECT_DOUBLE_EQ(entry.monthly_price, pricing.MonthlyCost(*entry.sku));
      EXPECT_EQ(entry.sku->deployment, deployment);
    }
  }
}

TEST(CompiledCatalogTest, CoversEveryCatalogSkuExactlyOnce) {
  const SkuCatalog catalog = BuildAzureLikeCatalog();
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);

  std::size_t total = 0;
  for (Deployment deployment :
       {Deployment::kSqlDb, Deployment::kSqlMi, Deployment::kSqlVm}) {
    total += compiled.ForDeployment(deployment).size();
  }
  EXPECT_EQ(total, catalog.size());
  EXPECT_EQ(compiled.catalog().size(), catalog.size());
}

TEST(CompiledCatalogTest, CapacityMatrixMatchesSkuFields) {
  const SkuCatalog catalog = BuildAzureLikeCatalog();
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);

  for (Deployment deployment : kPopulatedDeployments) {
    const CompiledDeployment& dep = compiled.ForDeployment(deployment);
    for (ResourceDim dim : kAllResourceDims) {
      for (std::size_t i = 0; i < dep.size(); ++i) {
        // Sku::Capacities() sets every dimension, so each memoized
        // capacity vector is complete and equal to the record's own.
        const ResourceVector from_sku = dep.entries()[i].sku->Capacities();
        ASSERT_TRUE(from_sku.Has(dim));
        EXPECT_DOUBLE_EQ(dep.entries()[i].capacities.Get(dim),
                         from_sku.Get(dim))
            << dep.entries()[i].sku->id << " dim " << ResourceDimName(dim);
      }
    }
  }
}

TEST(CompiledCatalogTest, DiskTierTableMatchesPremiumDisk) {
  const SkuCatalog catalog = BuildAzureLikeCatalog();
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);

  const std::vector<PremiumDiskTier>& reference = PremiumDiskTiers();
  ASSERT_EQ(compiled.disk_tiers().size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(compiled.disk_tiers()[i].name, reference[i].name);
    EXPECT_DOUBLE_EQ(compiled.disk_tiers()[i].iops, reference[i].iops);
    EXPECT_DOUBLE_EQ(compiled.disk_tiers()[i].throughput_mibps,
                     reference[i].throughput_mibps);
  }

  // Tier resolution parity across every bucket boundary of Table 2.
  for (double size :
       {0.5, 1.0, 127.9, 128.0, 128.1, 511.0, 512.0, 513.0, 1024.0, 1025.0,
        2048.0, 2049.0, 4096.0, 4097.0, 8191.0, 8192.0}) {
    StatusOr<PremiumDiskTier> snapshot = compiled.DiskTierForFileSize(size);
    StatusOr<PremiumDiskTier> live = TierForFileSize(size);
    ASSERT_EQ(snapshot.ok(), live.ok()) << size;
    ASSERT_TRUE(snapshot.ok()) << size;
    EXPECT_EQ(snapshot->name, live->name) << size;
    EXPECT_DOUBLE_EQ(snapshot->iops, live->iops);
    EXPECT_DOUBLE_EQ(snapshot->throughput_mibps, live->throughput_mibps);
  }
  // Failure-mode parity: non-positive and oversized files.
  for (double size : {0.0, -4.0, 8192.5, 100000.0}) {
    StatusOr<PremiumDiskTier> snapshot = compiled.DiskTierForFileSize(size);
    StatusOr<PremiumDiskTier> live = TierForFileSize(size);
    ASSERT_FALSE(snapshot.ok()) << size;
    EXPECT_EQ(snapshot.status().code(), live.status().code());
    EXPECT_EQ(snapshot.status().message(), live.status().message());
  }
}

TEST(CompiledCatalogTest, LayoutLimitsMatchComputeLayoutLimits) {
  const SkuCatalog catalog = BuildAzureLikeCatalog();
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);

  FileLayout layout;
  layout.files = {{"data0.mdf", 100.0}, {"data1.ndf", 600.0},
                  {"data2.ndf", 2500.0}};
  StatusOr<LayoutLimits> snapshot = compiled.LayoutLimitsFor(layout);
  StatusOr<LayoutLimits> live = ComputeLayoutLimits(layout);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(live.ok());
  EXPECT_DOUBLE_EQ(snapshot->total_iops, live->total_iops);
  EXPECT_DOUBLE_EQ(snapshot->total_throughput_mibps,
                   live->total_throughput_mibps);
  EXPECT_DOUBLE_EQ(snapshot->total_size_gib, live->total_size_gib);
  ASSERT_EQ(snapshot->tiers.size(), live->tiers.size());
  for (std::size_t i = 0; i < live->tiers.size(); ++i) {
    EXPECT_EQ(snapshot->tiers[i].name, live->tiers[i].name);
  }

  // Same failure modes, same messages.
  const FileLayout empty;
  EXPECT_EQ(compiled.LayoutLimitsFor(empty).status().message(),
            ComputeLayoutLimits(empty).status().message());
  FileLayout oversized;
  oversized.files = {{"huge.mdf", 9000.0}};
  EXPECT_EQ(compiled.LayoutLimitsFor(oversized).status().code(),
            ComputeLayoutLimits(oversized).status().code());
}

TEST(CompiledCatalogTest, EntriesStayValidAfterMove) {
  const SkuCatalog catalog = BuildAzureLikeCatalog();
  const DefaultPricing pricing;
  CompiledCatalog original = CompiledCatalog::Compile(catalog, &pricing);
  const std::string first_id =
      original.ForDeployment(Deployment::kSqlDb).entries().front().sku->id;

  const CompiledCatalog moved = std::move(original);
  const CompiledEntry& entry =
      moved.ForDeployment(Deployment::kSqlDb).entries().front();
  // Entry pointers target the snapshot's heap-allocated SKU storage, which
  // the move transfers wholesale — they stay valid and point into the
  // moved-to snapshot's own catalog copy.
  EXPECT_EQ(entry.sku->id, first_id);
  const std::vector<Sku>& skus = moved.catalog().skus();
  EXPECT_GE(entry.sku, skus.data());
  EXPECT_LT(entry.sku, skus.data() + skus.size());
}

// ------------------------------------------ Engine-path determinism.

TEST(CompiledCatalogTest, CurveIdenticalAcrossIndependentSnapshots) {
  const DefaultPricing pricing;
  const CompiledCatalog first =
      CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing);
  const CompiledCatalog second =
      CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing);
  const core::NonParametricEstimator estimator;
  const telemetry::PerfTrace trace = MixedTrace();

  StatusOr<PricePerformanceCurve> a = PricePerformanceCurve::Build(
      trace, first.ForDeployment(Deployment::kSqlDb).view(), pricing,
      estimator);
  StatusOr<PricePerformanceCurve> b = PricePerformanceCurve::Build(
      trace, second.ForDeployment(Deployment::kSqlDb).view(), pricing,
      estimator);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    const core::PricePerformancePoint& pa = a->points()[i];
    const core::PricePerformancePoint& pb = b->points()[i];
    EXPECT_EQ(pa.sku.id, pb.sku.id) << "point " << i;
    EXPECT_DOUBLE_EQ(pa.monthly_price, pb.monthly_price);
    EXPECT_DOUBLE_EQ(pa.throttling_probability, pb.throttling_probability);
    EXPECT_DOUBLE_EQ(pa.performance, pb.performance);
    // Memoized billing matches the billing interface for provisioned SKUs.
    if (!pa.sku.serverless) {
      EXPECT_DOUBLE_EQ(pa.monthly_price, pricing.MonthlyCost(pa.sku));
    }
  }
}

TEST(CompiledCatalogTest, CurveServerlessRepriceMatchesTargetHook) {
  CatalogOptions options;
  options.include_serverless = true;
  const SkuCatalog catalog = BuildAzureLikeCatalog(options);
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);
  const core::NonParametricEstimator estimator;
  // CPU present => serverless SKUs re-price per trace, exercising the
  // compiled path's conditional re-sort.
  const telemetry::PerfTrace trace = MixedTrace();
  // Mean of MixedTrace's CPU column {2, 6, 10, 14, 30, 4, 8, 2}.
  const double mean_cpu = 76.0 / 8.0;

  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      trace, compiled.ForDeployment(Deployment::kSqlDb).view(), pricing,
      estimator);
  ASSERT_TRUE(curve.ok());
  const TargetSpec& target = compiled.target();
  ASSERT_NE(target.reprice_for_trace, nullptr);
  bool saw_serverless = false;
  for (std::size_t i = 0; i < curve->size(); ++i) {
    const core::PricePerformancePoint& point = curve->points()[i];
    if (point.sku.serverless) {
      saw_serverless = true;
      // The usage-billed price the curve carries is exactly what the
      // target's per-trace hook produces for this workload.
      const double hook_price =
          target.reprice_for_trace(point.sku, mean_cpu, pricing);
      EXPECT_GE(hook_price, 0.0);
      EXPECT_DOUBLE_EQ(point.monthly_price, hook_price) << point.sku.id;
    }
    // The conditional re-sort restores global price order after repricing.
    if (i > 0) {
      EXPECT_GE(point.monthly_price, curve->points()[i - 1].monthly_price);
    }
  }
  EXPECT_TRUE(saw_serverless);
}

TEST(CompiledCatalogTest, MiFilterDeterministicAndLayoutDriven) {
  const DefaultPricing pricing;
  const CompiledCatalog first =
      CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing);
  const CompiledCatalog second =
      CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing);
  const telemetry::PerfTrace trace = MixedTrace();
  const FileLayout layout = UniformLayout(300.0, 2);

  StatusOr<MiCompiledFilterResult> a =
      core::FilterMiCandidates(first, layout, trace);
  StatusOr<MiCompiledFilterResult> b =
      core::FilterMiCandidates(second, layout, trace);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->restricted_to_bc, b->restricted_to_bc);
  EXPECT_DOUBLE_EQ(a->layout_limits.total_iops, b->layout_limits.total_iops);
  EXPECT_DOUBLE_EQ(a->layout_limits.total_throughput_mibps,
                   b->layout_limits.total_throughput_mibps);
  ASSERT_EQ(a->candidates.size(), b->candidates.size());
  ASSERT_FALSE(a->candidates.empty());
  for (std::size_t i = 0; i < a->candidates.size(); ++i) {
    EXPECT_EQ(a->candidates[i].entry->sku->id, b->candidates[i].entry->sku->id)
        << "candidate " << i;
    EXPECT_DOUBLE_EQ(a->candidates[i].iops_limit, b->candidates[i].iops_limit);
    // GP candidates carry the layout IOPS sum (Step 2); BC keeps the
    // record's local-SSD limit (negative = memoized capacities).
    if (a->candidates[i].entry->sku->tier == ServiceTier::kGeneralPurpose) {
      EXPECT_DOUBLE_EQ(a->candidates[i].iops_limit,
                       a->layout_limits.total_iops);
    } else {
      EXPECT_LT(a->candidates[i].iops_limit, 0.0);
    }
    // Candidates preserve the snapshot's cheapest-first order.
    if (i > 0) {
      EXPECT_GE(a->candidates[i].entry->monthly_price,
                a->candidates[i - 1].entry->monthly_price);
    }
  }
}

TEST(CompiledCatalogTest, RecommendersIdenticalAcrossIndependentSnapshots) {
  const DefaultPricing pricing;
  const CompiledCatalog first =
      CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing);
  const CompiledCatalog second =
      CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing);
  const core::NonParametricEstimator estimator;
  auto strategy = std::make_shared<core::ThresholdingStrategy>(0.10);
  const core::CustomerProfiler profiler(
      strategy, {ResourceDim::kCpu, ResourceDim::kMemoryGb, ResourceDim::kIops});
  StatusOr<core::GroupModel> group_model = core::GroupModel::Fit(
      {{0, 0.0005}, {0, 0.001}, {1, 0.02}, {1, 0.03}, {2, 0.08}, {2, 0.09}});
  ASSERT_TRUE(group_model.ok());
  const telemetry::PerfTrace trace = MixedTrace();

  const core::ElasticRecommender rec_a(&first, &estimator, &profiler,
                                       &*group_model);
  const core::ElasticRecommender rec_b(&second, &estimator, &profiler,
                                       &*group_model);
  StatusOr<core::Recommendation> a = rec_a.RecommendDb(trace);
  StatusOr<core::Recommendation> b = rec_b.RecommendDb(trace);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sku.id, b->sku.id);
  EXPECT_DOUBLE_EQ(a->monthly_cost, b->monthly_cost);
  EXPECT_DOUBLE_EQ(a->throttling_probability, b->throttling_probability);
  EXPECT_EQ(a->rationale, b->rationale);

  const core::BaselineRecommender base_a(&first);
  const core::BaselineRecommender base_b(&second);
  StatusOr<core::Recommendation> pick_a =
      base_a.Recommend(trace, Deployment::kSqlDb);
  StatusOr<core::Recommendation> pick_b =
      base_b.Recommend(trace, Deployment::kSqlDb);
  ASSERT_EQ(pick_a.ok(), pick_b.ok());
  if (pick_a.ok()) {
    EXPECT_EQ(pick_a->sku.id, pick_b->sku.id);
    EXPECT_DOUBLE_EQ(pick_a->monthly_cost, pick_b->monthly_cost);
  }
}

TEST(CompiledCatalogTest, EmptyDeploymentViewFailsCurveBuild) {
  CatalogOptions options;
  options.include_sql_mi = false;
  const SkuCatalog catalog = BuildAzureLikeCatalog(options);
  const DefaultPricing pricing;
  const CompiledCatalog compiled = CompiledCatalog::Compile(catalog, &pricing);
  EXPECT_TRUE(compiled.ForDeployment(Deployment::kSqlMi).empty());

  const core::NonParametricEstimator estimator;
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      MixedTrace(), compiled.ForDeployment(Deployment::kSqlMi).view(), pricing,
      estimator);
  EXPECT_FALSE(curve.ok());
  EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------- Per-candidate curve scoring.

// A random multi-dimensional trace with deliberate value collisions: CPU
// is quantised to whole vCores and latency to half-milliseconds, so SKU
// capacities sit exactly on observed demand values.
telemetry::PerfTrace RandomTrace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  telemetry::PerfTrace trace;
  std::vector<double> cpu(n), memory(n), iops(n), latency(n);
  for (std::size_t i = 0; i < n; ++i) {
    cpu[i] = std::floor(rng.Uniform(0.0, 16.0));
    memory[i] = rng.Uniform(1.0, 64.0);
    iops[i] = rng.Uniform(50.0, 5000.0);
    latency[i] = 0.5 * std::floor(rng.Uniform(2.0, 20.0));
  }
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, memory).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops, iops).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, latency).ok());
  return trace;
}

std::uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

// A pool for `jobs` > 1, none (the serial path) for 1.
exec::ThreadPool* PoolFor(int jobs, std::optional<exec::ThreadPool>* pool) {
  if (jobs <= 1) return nullptr;
  pool->emplace(jobs);
  return &**pool;
}

class BatchEvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    compiled_ = new CompiledCatalog(
        CompiledCatalog::Compile(BuildAzureLikeCatalog(), &pricing_));
  }
  static void TearDownTestSuite() {
    delete compiled_;
    compiled_ = nullptr;
  }

  static CompiledView View(Deployment deployment) {
    return compiled_->ForDeployment(deployment).view();
  }

  static const DefaultPricing pricing_;
  static CompiledCatalog* compiled_;
};

const DefaultPricing BatchEvaluationTest::pricing_;
CompiledCatalog* BatchEvaluationTest::compiled_ = nullptr;

TEST_F(BatchEvaluationTest, MatchesScalarProbabilityExactlyAtAnyJobCount) {
  const telemetry::PerfTrace trace = RandomTrace(55, 700);
  const core::NonParametricEstimator estimator;
  for (Deployment deployment : kPopulatedDeployments) {
    for (int jobs : {1, 2, 8}) {
      std::optional<exec::ThreadPool> pool;
      StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
          trace, View(deployment), pricing_, estimator, PoolFor(jobs, &pool));
      ASSERT_TRUE(curve.ok()) << curve.status().ToString();
      ASSERT_EQ(curve->size(), View(deployment).size());
      for (const core::PricePerformancePoint& point : curve->points()) {
        StatusOr<double> expected =
            estimator.Probability(trace, point.sku.Capacities());
        ASSERT_TRUE(expected.ok());
        EXPECT_EQ(point.throttling_probability, *expected)
            << point.sku.id << " jobs " << jobs;
      }
    }
  }
}

// Fails every candidate whose memory capacity is listed, naming the value,
// so a test can tell WHICH failure a curve build surfaced.
class FailingEstimator : public core::ThrottlingEstimator {
 public:
  explicit FailingEstimator(std::set<double> failing_memory)
      : failing_memory_(std::move(failing_memory)) {}

  StatusOr<double> Probability(
      const telemetry::PerfTrace& trace,
      const ResourceVector& capacities) const override {
    const double memory = capacities.Get(ResourceDim::kMemoryGb);
    if (failing_memory_.count(memory) != 0) {
      return InvalidArgumentError("memory " + std::to_string(memory));
    }
    return scan_.Probability(trace, capacities);
  }
  const char* name() const override { return "failing"; }

 private:
  std::set<double> failing_memory_;
  core::NonParametricEstimator scan_;
};

TEST_F(BatchEvaluationTest, ReportsFirstFailureInCandidateOrder) {
  const telemetry::PerfTrace trace = RandomTrace(56, 100);
  const CompiledView view = View(Deployment::kSqlDb);
  ASSERT_GE(view.size(), 3u);
  const double early = view[1].capacities.Get(ResourceDim::kMemoryGb);
  const double late =
      view[view.size() - 1].capacities.Get(ResourceDim::kMemoryGb);
  ASSERT_NE(early, late);
  const FailingEstimator estimator({early, late});

  // The serial loop's answer: the first failing candidate in price order.
  std::string expected;
  for (const CompiledEntry& entry : view) {
    const double memory = entry.capacities.Get(ResourceDim::kMemoryGb);
    if (memory == early || memory == late) {
      expected = "memory " + std::to_string(memory);
      break;
    }
  }
  for (int jobs : {1, 8}) {
    std::optional<exec::ThreadPool> pool;
    StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
        trace, view, pricing_, estimator, PoolFor(jobs, &pool));
    ASSERT_FALSE(curve.ok());
    EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(curve.status().message(), expected) << "jobs " << jobs;
  }
}

TEST_F(BatchEvaluationTest, EmptyInputsBehaveLikeScalarPath) {
  const core::NonParametricEstimator estimator;
  const telemetry::PerfTrace trace = RandomTrace(57, 50);
  EXPECT_FALSE(PricePerformanceCurve::Build(
                   trace, std::vector<CompiledCandidateRef>{}, pricing_,
                   estimator)
                   .ok());

  const telemetry::PerfTrace no_samples;
  const Status scalar =
      estimator
          .Probability(no_samples, View(Deployment::kSqlDb)[0].capacities)
          .status();
  StatusOr<PricePerformanceCurve> curve = PricePerformanceCurve::Build(
      no_samples, View(Deployment::kSqlDb), pricing_, estimator);
  ASSERT_FALSE(curve.ok());
  EXPECT_EQ(curve.status().code(), scalar.code());
  EXPECT_EQ(curve.status().message(), scalar.message());
}

// The whole-view overload and the ref-list (vector) overload without IOPS
// overrides score the same candidates the same way.
TEST_F(BatchEvaluationTest, CompiledViewOverloadMatchesVectorOverload) {
  const telemetry::PerfTrace trace = RandomTrace(58, 300);
  const core::NonParametricEstimator estimator;
  const CompiledView view = View(Deployment::kSqlDb);
  std::vector<CompiledCandidateRef> refs;
  for (const CompiledEntry& entry : view) refs.push_back({&entry, -1.0});

  StatusOr<PricePerformanceCurve> from_view =
      PricePerformanceCurve::Build(trace, view, pricing_, estimator);
  StatusOr<PricePerformanceCurve> from_refs =
      PricePerformanceCurve::Build(trace, refs, pricing_, estimator);
  ASSERT_TRUE(from_view.ok());
  ASSERT_TRUE(from_refs.ok());
  ASSERT_EQ(from_view->size(), from_refs->size());
  for (std::size_t i = 0; i < from_view->size(); ++i) {
    EXPECT_EQ(from_view->points()[i].sku.id, from_refs->points()[i].sku.id);
    EXPECT_EQ(from_view->points()[i].throttling_probability,
              from_refs->points()[i].throttling_probability);
  }
}

TEST_F(BatchEvaluationTest, CounterTotalsAreScheduleIndependent) {
  const telemetry::PerfTrace trace = RandomTrace(60, 400);
  const core::NonParametricEstimator estimator;
  const char* const counters[] = {"ppm.throttling_evaluations",
                                  "ppm.samples_scanned"};
  std::vector<std::vector<std::uint64_t>> deltas;
  for (int jobs : {1, 2, 8}) {
    std::vector<std::uint64_t> before;
    for (const char* name : counters) before.push_back(CounterValue(name));
    std::optional<exec::ThreadPool> pool;
    ASSERT_TRUE(PricePerformanceCurve::Build(trace, View(Deployment::kSqlDb),
                                             pricing_, estimator,
                                             PoolFor(jobs, &pool))
                    .ok());
    std::vector<std::uint64_t> delta;
    for (std::size_t i = 0; i < std::size(counters); ++i) {
      delta.push_back(CounterValue(counters[i]) - before[i]);
    }
    deltas.push_back(std::move(delta));
  }
  EXPECT_EQ(deltas[0][0], View(Deployment::kSqlDb).size());
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    EXPECT_EQ(deltas[0][i], deltas[1][i]) << counters[i] << " jobs 1 vs 2";
    EXPECT_EQ(deltas[0][i], deltas[2][i]) << counters[i] << " jobs 1 vs 8";
  }
}

}  // namespace
}  // namespace doppler::catalog
