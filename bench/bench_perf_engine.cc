// Engine micro-benchmarks (google-benchmark), backing the paper's
// scalability claims:
//
//  - §3.2: the non-parametric joint-frequency estimator is what makes
//    curve generation over a full catalog practical; the Gaussian-KDE
//    alternative "can do a sufficient job ... but the time it takes to do
//    so is impractical".
//  - §3.1: "Make sure the solution can scale" — end-to-end assessment
//    latency must support hundreds of requests per day on commodity
//    hardware.

#include <array>
#include <cstdint>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "catalog/target.h"
#include "core/negotiability.h"
#include "core/price_performance.h"
#include "core/recommender.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "exec/fleet_assessor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/assessment_service.h"
#include "serve/snapshot_registry.h"
#include "stats/stl.h"
#include "util/aligned.h"
#include "util/deadline.h"
#include "util/kernels/kernels.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace {

using namespace doppler;
using catalog::ResourceDim;

// The evaluation-cost counters the bench-regression gate compares
// (tools/check.sh --bench vs the committed BENCH_pipeline.json). Counts
// are exact functions of (trace, catalog) — unlike wall time they do not
// depend on the machine, so regressions in the throttling-kernel work
// done per curve fail deterministically.
constexpr const char* kCostCounters[] = {
    "ppm.samples_scanned",
};
constexpr std::size_t kNumCostCounters = std::size(kCostCounters);

std::array<std::uint64_t, kNumCostCounters> SnapshotCostCounters() {
  std::array<std::uint64_t, kNumCostCounters> snapshot;
  for (std::size_t i = 0; i < kNumCostCounters; ++i) {
    snapshot[i] = obs::DefaultMetrics().GetCounter(kCostCounters[i])->Value();
  }
  return snapshot;
}

// Attaches the per-iteration counter deltas to the benchmark result, so
// the JSON export carries e.g. "ppm.samples_scanned" per assessment.
void ReportCostCounters(
    benchmark::State& state,
    const std::array<std::uint64_t, kNumCostCounters>& before) {
  const std::array<std::uint64_t, kNumCostCounters> after =
      SnapshotCostCounters();
  for (std::size_t i = 0; i < kNumCostCounters; ++i) {
    state.counters[kCostCounters[i]] = benchmark::Counter(
        static_cast<double>(after[i] - before[i]) /
        static_cast<double>(state.iterations()));
  }
}

telemetry::PerfTrace MakeTrace(int days, std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "bench";
  workload::DimensionSpec cpu =
      workload::DimensionSpec::Spiky(3.0, 8.0, 1.0, 30.0);
  cpu.base_amplitude = 3.0;
  spec.dims[ResourceDim::kCpu] = cpu;
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::DailyPeriodic(18.0, 10.0);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(1800.0, 1200.0);
  spec.dims[ResourceDim::kLogRateMbps] =
      workload::DimensionSpec::DailyPeriodic(5.0, 3.0);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(6.5, 0.03);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, days, &rng);
  if (!trace.ok()) std::abort();
  return *std::move(trace);
}

const catalog::SkuCatalog& Catalog() {
  static const auto* const kCatalog =
      new catalog::SkuCatalog(catalog::BuildAzureLikeCatalog());
  return *kCatalog;
}

const catalog::DefaultPricing& Pricing() {
  static const auto* const kPricing = new catalog::DefaultPricing();
  return *kPricing;
}

// The shared compiled snapshot the curve/recommender benches read — one
// compile per process, like the pipeline does.
const catalog::CompiledCatalog& Compiled() {
  static const auto* const kCompiled = new catalog::CompiledCatalog(
      catalog::CompiledCatalog::Compile(Catalog(), &Pricing()));
  return *kCompiled;
}

const core::GroupModel& OfflineModel() {
  static const core::GroupModel* const kModel = [] {
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        Catalog(), catalog::DefaultPricing(), core::NonParametricEstimator(),
        catalog::Deployment::kSqlDb, 60, 5);
    if (!model.ok()) std::abort();
    return new core::GroupModel(*std::move(model));
  }();
  return *kModel;
}

// One pipeline per thread-count arg; benchmarks register serially so a
// plain map needs no locking.
const dma::SkuRecommendationPipeline& PipelineWithThreads(int num_threads) {
  static auto* const kPipelines =
      new std::map<int, std::unique_ptr<dma::SkuRecommendationPipeline>>();
  auto it = kPipelines->find(num_threads);
  if (it == kPipelines->end()) {
    dma::SkuRecommendationPipeline::Config config;
    config.num_threads = num_threads;
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(
            {catalog::SkuCatalog(Catalog()), core::GroupModel(OfflineModel())},
            config);
    if (!pipeline.ok()) std::abort();
    it = kPipelines
             ->emplace(num_threads,
                       std::make_unique<dma::SkuRecommendationPipeline>(
                           *std::move(pipeline)))
             .first;
  }
  return *it->second;
}

// ---- Throttling probability: non-parametric vs KDE, per SKU.

void BM_ThrottlingNonParametric(benchmark::State& state) {
  const telemetry::PerfTrace trace =
      MakeTrace(static_cast<int>(state.range(0)), 1);
  const catalog::Sku sku = Catalog().skus()[40];
  const core::NonParametricEstimator estimator;
  const catalog::ResourceVector caps = sku.Capacities();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Probability(trace, caps));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.num_samples()));
}
BENCHMARK(BM_ThrottlingNonParametric)->Arg(7)->Arg(14)->Arg(30);

void BM_ThrottlingKde(benchmark::State& state) {
  const telemetry::PerfTrace trace =
      MakeTrace(static_cast<int>(state.range(0)), 1);
  const catalog::Sku sku = Catalog().skus()[40];
  const core::KdeEstimator estimator;
  const catalog::ResourceVector caps = sku.Capacities();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Probability(trace, caps));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.num_samples()));
}
BENCHMARK(BM_ThrottlingKde)->Arg(7)->Arg(14)->Arg(30);

void BM_ThrottlingCopula(benchmark::State& state) {
  const telemetry::PerfTrace trace =
      MakeTrace(static_cast<int>(state.range(0)), 1);
  const catalog::Sku sku = Catalog().skus()[40];
  const core::GaussianCopulaEstimator estimator;
  const catalog::ResourceVector caps = sku.Capacities();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Probability(trace, caps));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.num_samples()));
}
BENCHMARK(BM_ThrottlingCopula)->Arg(7)->Arg(14)->Arg(30);

// ---- Full price-performance curve over the whole catalog.

template <typename Estimator>
void CurveOverCatalog(benchmark::State& state) {
  const telemetry::PerfTrace trace =
      MakeTrace(static_cast<int>(state.range(0)), 2);
  const Estimator estimator;
  const catalog::CompiledView candidates =
      Compiled().ForDeployment(catalog::Deployment::kSqlDb).view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PricePerformanceCurve::Build(
        trace, candidates, Compiled().pricing(), estimator));
  }
  state.SetLabel(std::to_string(candidates.size()) + " SKUs");
}

void BM_CurveNonParametric(benchmark::State& state) {
  CurveOverCatalog<core::NonParametricEstimator>(state);
}
BENCHMARK(BM_CurveNonParametric)->Arg(7)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_CurveKde(benchmark::State& state) {
  CurveOverCatalog<core::KdeEstimator>(state);
}
BENCHMARK(BM_CurveKde)->Arg(7)->Arg(30)->Unit(benchmark::kMillisecond);

// ---- Kernel-layer microbenches (DESIGN.md §15): the dispatched SIMD
// variant against its forced-scalar twin, same data, same process. The
// bench gate (tools/check.sh --bench) locks the mark pair's wall-time
// ratio via bench_check.py --speedup — a within-run ratio, so it holds on
// machines where absolute times do not.

// The best non-scalar table, or nullptr on hosts without one.
const kernels::KernelOps* SimdKernels() {
  const kernels::KernelOps& best = kernels::SelectKernels(nullptr);
  return std::string(best.name) == "scalar" ? nullptr : &best;
}

// The mark kernel carries every Eq. 1 evaluation: the columnar scan calls
// it once per shared dimension, each pass marking rows on top of the
// previous columns' marks. One iteration is one candidate's scan: the
// first `n` rows of a 30-day bench trace's CPU, memory and IOPS columns
// against a mid-ladder SKU's capacities.
void RunMarkKernelBench(benchmark::State& state,
                        const kernels::KernelOps& ops) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const telemetry::PerfTrace trace = MakeTrace(30, 2);
  if (trace.num_samples() < n) std::abort();
  const catalog::ResourceVector capacities = Catalog().skus()[40].Capacities();
  const ResourceDim dims[] = {ResourceDim::kCpu, ResourceDim::kMemoryGb,
                              ResourceDim::kIops};
  AlignedVector<unsigned char> marks(n);
  for (auto _ : state) {
    std::fill(marks.begin(), marks.end(), 0);
    std::size_t marked = 0;
    for (ResourceDim dim : dims) {
      marked += ops.mark_above(trace.Values(dim).data(), n,
                               capacities.Get(dim), marks.data());
    }
    benchmark::DoNotOptimize(marked);
    benchmark::DoNotOptimize(marks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * std::size(dims) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(ops.name);
}

void BM_MarkKernelScalar(benchmark::State& state) {
  RunMarkKernelBench(state,
                     *kernels::KernelOpsFor(kernels::KernelIsa::kScalar));
}
BENCHMARK(BM_MarkKernelScalar)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_MarkKernelSimd(benchmark::State& state) {
  const kernels::KernelOps* ops = SimdKernels();
  if (ops == nullptr) {
    state.SkipWithError("no SIMD kernel variant on this host");
    return;
  }
  RunMarkKernelBench(state, *ops);
}
BENCHMARK(BM_MarkKernelSimd)->Arg(4096)->Unit(benchmark::kMicrosecond);

void RunKdeBatchBench(benchmark::State& state,
                      const kernels::KernelOps& ops) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  AlignedVector<double> sample(n);
  for (auto& v : sample) v = rng.Normal(50.0, 12.0);
  double x = 30.0;
  for (auto _ : state) {
    // Sweep the query point so the transcendental inputs vary.
    x = x < 70.0 ? x + 0.25 : 30.0;
    const double cdf = ops.kde_cdf_sum(sample.data(), n, x, 3.5);
    const double density = ops.kde_density_sum(sample.data(), n, x, 3.5);
    benchmark::DoNotOptimize(cdf);
    benchmark::DoNotOptimize(density);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetLabel(ops.name);
}

void BM_KdeBatchScalar(benchmark::State& state) {
  RunKdeBatchBench(state,
                   *kernels::KernelOpsFor(kernels::KernelIsa::kScalar));
}
BENCHMARK(BM_KdeBatchScalar)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_KdeBatchSimd(benchmark::State& state) {
  const kernels::KernelOps* ops = SimdKernels();
  if (ops == nullptr) {
    state.SkipWithError("no SIMD kernel variant on this host");
    return;
  }
  RunKdeBatchBench(state, *ops);
}
BENCHMARK(BM_KdeBatchSimd)->Arg(4096)->Unit(benchmark::kMicrosecond);

// ---- Negotiability strategies (the Table 4 cost axis).

void BM_StrategyThresholding(benchmark::State& state) {
  const telemetry::PerfTrace trace = MakeTrace(14, 3);
  const core::ThresholdingStrategy strategy;
  const std::vector<ResourceDim> dims =
      workload::ProfilingDims(catalog::Deployment::kSqlDb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Evaluate(trace, dims));
  }
}
BENCHMARK(BM_StrategyThresholding);

void BM_StrategyMinMaxAuc(benchmark::State& state) {
  const telemetry::PerfTrace trace = MakeTrace(14, 3);
  const core::MinMaxAucStrategy strategy;
  const std::vector<ResourceDim> dims =
      workload::ProfilingDims(catalog::Deployment::kSqlDb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Evaluate(trace, dims));
  }
}
BENCHMARK(BM_StrategyMinMaxAuc);

void BM_StrategyStl(benchmark::State& state) {
  const telemetry::PerfTrace trace = MakeTrace(14, 3);
  const core::StlVarianceStrategy strategy;
  const std::vector<ResourceDim> dims =
      workload::ProfilingDims(catalog::Deployment::kSqlDb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Evaluate(trace, dims));
  }
}
BENCHMARK(BM_StrategyStl)->Unit(benchmark::kMillisecond);

// ---- End-to-end elastic recommendation (pipeline-equivalent path).

void BM_EndToEndRecommendation(benchmark::State& state) {
  const telemetry::PerfTrace trace = MakeTrace(14, 4);
  const core::NonParametricEstimator estimator;
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(catalog::Deployment::kSqlDb));
  const core::ElasticRecommender recommender(&Compiled(), &estimator,
                                             &profiler, &OfflineModel());
  for (auto _ : state) {
    benchmark::DoNotOptimize(recommender.RecommendDb(trace));
  }
  state.SetLabel("14-day trace, full DB catalog");
}
BENCHMARK(BM_EndToEndRecommendation)->Unit(benchmark::kMillisecond);

// ---- Full pipeline assessment with observability on/off and the SKU
// curve fan-out at 1/2/8 threads.
//
// Args are {tracing, threads}. tracing=0 runs with trace buffering
// disabled (the production default: spans still feed latency histograms,
// counters still tick), tracing=1 with the trace buffer enabled;
// comparing the two quantifies the instrumentation overhead (acceptance
// bar <2% with export disabled). The threads axis exercises the exec
// layer's per-SKU parallel curve build — the report is byte-identical at
// every setting, only the wall time may move.

void BM_PipelineAssess(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  const int threads = static_cast<int>(state.range(1));
  const dma::SkuRecommendationPipeline& pipeline = PipelineWithThreads(threads);
  obs::SetTracingEnabled(tracing);
  obs::ClearTraceBuffer();
  dma::AssessmentRequest request;
  request.customer_id = "bench";
  request.target = catalog::Deployment::kSqlDb;
  request.database_traces = {MakeTrace(7, 5)};
  const auto before = SnapshotCostCounters();
  for (auto _ : state) {
    StatusOr<dma::AssessmentOutcome> outcome = pipeline.Assess(request);
    benchmark::DoNotOptimize(outcome);
    if (!outcome.ok()) std::abort();
  }
  ReportCostCounters(state, before);
  obs::SetTracingEnabled(false);
  // Surface the span-derived per-stage breakdown next to the timing.
  for (const char* stage :
       {"pipeline.preprocess", "pipeline.quality", "pipeline.recommend",
        "pipeline.baseline"}) {
    const obs::Histogram* latency =
        obs::DefaultMetrics().FindHistogram(std::string("latency.") + stage);
    if (latency != nullptr && latency->Count() > 0) {
      state.counters[stage] = benchmark::Counter(
          latency->Sum() / static_cast<double>(latency->Count()));
    }
  }
  obs::ClearTraceBuffer();
  state.SetLabel(std::string(tracing ? "trace buffer on" : "trace buffer off") +
                 ", " + std::to_string(threads) + " threads");
}
BENCHMARK(BM_PipelineAssess)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({0, 8})
    ->Unit(benchmark::kMillisecond);

// ---- Repeated assessments over the one compiled catalog snapshot. The
// pipeline compiles the SKU search space (price-sorted candidate sets,
// capacity matrix, disk-tier table) exactly once at Create; every
// assessment afterwards reads borrowed views. Items = assessments, so
// items_per_second is the steady-state single-pipeline assessment
// throughput the fleet layer multiplies.

void BM_CompiledAssess(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const dma::SkuRecommendationPipeline& pipeline = PipelineWithThreads(threads);
  dma::AssessmentRequest request;
  request.customer_id = "compiled";
  request.target = catalog::Deployment::kSqlDb;
  request.database_traces = {MakeTrace(7, 6)};
  const auto before = SnapshotCostCounters();
  for (auto _ : state) {
    StatusOr<dma::AssessmentOutcome> outcome = pipeline.Assess(request);
    benchmark::DoNotOptimize(outcome);
    if (!outcome.ok()) std::abort();
  }
  ReportCostCounters(state, before);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("shared compiled snapshot, " + std::to_string(threads) +
                 " threads");
}
BENCHMARK(BM_CompiledAssess)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// ---- Fleet assessment: an 8-customer batch through FleetAssessor at
// jobs = 1/2/8, pipeline SKU fan-out matched to the job count the way
// `doppler assess-batch --jobs N` wires it.

void BM_FleetAssess(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const dma::SkuRecommendationPipeline& pipeline = PipelineWithThreads(jobs);
  std::vector<dma::AssessmentRequest> requests;
  for (int i = 0; i < 8; ++i) {
    dma::AssessmentRequest request;
    request.customer_id = "fleet-" + std::to_string(i);
    request.target = catalog::Deployment::kSqlDb;
    request.database_traces = {MakeTrace(7, 10 + static_cast<std::uint64_t>(i))};
    requests.push_back(std::move(request));
  }
  const exec::FleetAssessor assessor(&pipeline, jobs);
  for (auto _ : state) {
    std::vector<StatusOr<dma::AssessmentOutcome>> outcomes =
        assessor.AssessAll(requests);
    benchmark::DoNotOptimize(outcomes);
    for (const StatusOr<dma::AssessmentOutcome>& outcome : outcomes) {
      if (!outcome.ok()) std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
  state.SetLabel(std::to_string(jobs) + " jobs, 8-customer fleet");
}
BENCHMARK(BM_FleetAssess)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// ---- Cross-target curve build: one snapshot + curve per registered
// deployment target (the `doppler assess --targets ...` shape). The gate
// locks `catalog.targets_compiled` exactly (snapshots per iteration is a
// pure function of the registry) and the per-target throttling-kernel
// work as `ppm.samples_scanned.<target-id>` tolerance counters, so a
// ladder or kernel change that silently inflates ONE target's evaluation
// cost fails even when the blended total stays flat.

void BM_CrossTargetCurve(benchmark::State& state) {
  const telemetry::PerfTrace trace = MakeTrace(7, 21);
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  const std::vector<catalog::TargetSpec>& specs =
      catalog::TargetRegistry::BuiltIns().specs();
  const auto* compiled_counter =
      obs::DefaultMetrics().GetCounter("catalog.targets_compiled");
  const auto* scanned_counter =
      obs::DefaultMetrics().GetCounter("ppm.samples_scanned");
  const std::uint64_t compiled_before = compiled_counter->Value();
  std::vector<std::uint64_t> scanned_per_target(specs.size(), 0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t scanned_before = scanned_counter->Value();
      const catalog::CompiledCatalog compiled =
          catalog::CompiledCatalog::CompileTarget(specs[i], &pricing);
      StatusOr<core::PricePerformanceCurve> curve =
          core::PricePerformanceCurve::Build(
              trace, compiled.ForDeployment(specs[i].deployment).view(),
              pricing, estimator);
      benchmark::DoNotOptimize(curve);
      if (!curve.ok()) std::abort();
      scanned_per_target[i] += scanned_counter->Value() - scanned_before;
    }
  }
  state.counters["catalog.targets_compiled"] = benchmark::Counter(
      static_cast<double>(compiled_counter->Value() - compiled_before) /
      static_cast<double>(state.iterations()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    state.counters["ppm.samples_scanned." + specs[i].id] =
        benchmark::Counter(static_cast<double>(scanned_per_target[i]) /
                           static_cast<double>(state.iterations()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(specs.size()));
  state.SetLabel(std::to_string(specs.size()) +
                 " targets, snapshot + curve per target");
}
BENCHMARK(BM_CrossTargetCurve)->Unit(benchmark::kMillisecond);

// ---- Serving-path overload: a deterministic admission-control scenario
// whose serve.* counters the bench gate locks down next to the engine's
// evaluation-cost counters. Per iteration, with the single worker wedged:
// 4 requests fill the queue, 8 more are shed at admission, then (after
// the queue drains) 3 pre-expired requests die at the first stage
// boundary. admitted/shed/expired are exact functions of the scenario —
// a drift means the admission or deadline semantics changed, not that
// the machine was busy.

std::shared_ptr<const dma::SkuRecommendationPipeline> ServePipeline() {
  static auto* const kPipeline = [] {
    dma::SkuRecommendationPipeline::Config config;
    config.num_threads = 1;
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(
            {catalog::SkuCatalog(Catalog()), core::GroupModel(OfflineModel())},
            config);
    if (!pipeline.ok()) std::abort();
    return new std::shared_ptr<const dma::SkuRecommendationPipeline>(
        std::make_shared<const dma::SkuRecommendationPipeline>(
            *std::move(pipeline)));
  }();
  return *kPipeline;
}

void BM_ServeOverload(benchmark::State& state) {
  const telemetry::PerfTrace trace = MakeTrace(2, 42);
  const auto request_for = [&trace](const std::string& id) {
    dma::AssessmentRequest request;
    request.customer_id = id;
    request.target = catalog::Deployment::kSqlDb;
    request.database_traces = {trace};
    return request;
  };

  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  for (auto _ : state) {
    serve::SnapshotRegistry registry(ServePipeline());
    serve::ServiceOptions options;
    options.workers = 1;
    options.queue_depth = 4;
    serve::AssessmentService service(&registry, options);

    // Wedge the worker at the first stage boundary so the queue state
    // behind it is exact.
    std::promise<void> started;
    std::promise<void> release_promise;
    std::shared_future<void> release(release_promise.get_future());
    dma::AssessmentRequest blocker = request_for("blocker");
    bool first = true;
    blocker.stage_boundary_hook = [&started, release, first](
                                      const char*) mutable {
      if (first) {
        first = false;
        started.set_value();
        release.wait();
      }
    };
    std::vector<std::future<serve::ServeResponse>> futures;
    StatusOr<std::future<serve::ServeResponse>> wedged =
        service.Submit(std::move(blocker));
    if (!wedged.ok()) std::abort();
    futures.push_back(std::move(*wedged));
    started.get_future().wait();

    // 4 fill the queue, 8 shed against the full queue.
    for (int i = 0; i < 12; ++i) {
      StatusOr<std::future<serve::ServeResponse>> submitted =
          service.Submit(request_for("load-" + std::to_string(i)));
      if (submitted.ok()) futures.push_back(std::move(*submitted));
    }
    release_promise.set_value();
    for (auto& future : futures) (void)future.get();

    // Queue drained: 3 pre-expired requests are admitted and die at the
    // first boundary with kDeadlineExceeded.
    std::vector<std::future<serve::ServeResponse>> doomed;
    for (int i = 0; i < 3; ++i) {
      dma::AssessmentRequest request = request_for("late-" + std::to_string(i));
      request.deadline = Deadline::Expired();
      StatusOr<std::future<serve::ServeResponse>> submitted =
          service.Submit(std::move(request));
      if (submitted.ok()) doomed.push_back(std::move(*submitted));
    }
    for (auto& future : doomed) (void)future.get();

    const serve::AssessmentService::Stats stats = service.stats();
    admitted += stats.admitted;
    shed += stats.shed;
    expired += stats.expired;
    benchmark::DoNotOptimize(stats);
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["serve.admitted"] =
      benchmark::Counter(static_cast<double>(admitted) / iterations);
  state.counters["serve.shed"] =
      benchmark::Counter(static_cast<double>(shed) / iterations);
  state.counters["serve.expired"] =
      benchmark::Counter(static_cast<double>(expired) / iterations);
  state.SetLabel("1 worker, queue 4, 16 requests/iteration");
}
BENCHMARK(BM_ServeOverload)->Unit(benchmark::kMillisecond);

// ---- Flight-recorder overhead: the same single-threaded pipeline assess
// with and without a terminal FlightRecord per request, mirroring exactly
// what the serving layer records (queue wait, total latency, per-stage
// timings). Arg is recorder on/off; comparing the two wall times bounds
// the recorder's cost per assessment, and the exact obs.flight.recorded
// counter (1 with the recorder attached, 0 without) locks the
// record-per-request contract in the bench gate — a drift means requests
// started being recorded zero or multiple times.

void BM_FlightRecorderOverhead(benchmark::State& state) {
  const bool recording = state.range(0) != 0;
  const dma::SkuRecommendationPipeline& pipeline = PipelineWithThreads(1);
  obs::FlightRecorder recorder;
  dma::AssessmentRequest request;
  request.customer_id = "flight";
  request.target = catalog::Deployment::kSqlDb;
  request.database_traces = {MakeTrace(7, 5)};
  obs::Counter* const recorded =
      obs::DefaultMetrics().GetCounter("obs.flight.recorded");
  const std::uint64_t recorded_before = recorded->Value();
  const auto before = SnapshotCostCounters();
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    StatusOr<dma::AssessmentOutcome> outcome = pipeline.Assess(request);
    benchmark::DoNotOptimize(outcome);
    if (!outcome.ok()) std::abort();
    if (recording) {
      obs::FlightRecord record;
      record.request_id = "flight-" + std::to_string(++sequence);
      record.snapshot_epoch = 1;
      record.status = StatusCode::kOk;
      record.cause = obs::FlightCause::kCompleted;
      record.queue_wait_seconds = 0.0;
      for (const dma::StageTiming& timing : outcome->stage_timings) {
        record.total_seconds += timing.seconds;
        record.stage_timings.push_back({timing.stage, timing.seconds});
      }
      recorder.Record(std::move(record));
    }
  }
  ReportCostCounters(state, before);
  state.counters["obs.flight.recorded"] = benchmark::Counter(
      static_cast<double>(recorded->Value() - recorded_before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(recording ? "recorder on, 1 record/assess" : "recorder off");
}
BENCHMARK(BM_FlightRecorderOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
