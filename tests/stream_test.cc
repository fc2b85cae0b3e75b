// Differential property tests for the streaming telemetry layer
// (DESIGN.md §13): at every step of a seeded random append/evict schedule
// the ring's materialised window and its mean must be bit-identical to a
// from-scratch rebuild over a shadow copy of the window, and sampled
// AssessStages runs over the materialised window must render byte-identical
// JSON to assessments over the shadow. Plus: the monitor's drift-gated
// stage-mask policy, a seeded DriftPlan soak, a concurrent reader/appender
// soak (TSan target), and the `doppler monitor` CLI end to end.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/resource.h"
#include "dma/cli.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "obs/metrics.h"
#include "serve/spool.h"
#include "sim/fault_injector.h"
#include "stats/descriptive.h"
#include "stream/monitor.h"
#include "stream/streaming_trace.h"
#include "util/file_util.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler::stream {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

double CounterValue(const std::string& name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

// ---------------------------------------------------------------------------
// Shared pipeline fixture (one offline fit per suite, like StageFixture).

class StreamFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb, 60, 7);
    ASSERT_TRUE(model.ok());
    dma::StaticInputs inputs{std::move(catalog), *std::move(model)};
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(std::move(inputs));
    ASSERT_TRUE(pipeline.ok());
    pipeline_ = new dma::SkuRecommendationPipeline(*std::move(pipeline));
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static std::string StableJson(const dma::AssessmentOutcome& outcome) {
    dma::AssessmentJsonOptions options;
    options.include_stage_seconds = false;
    return dma::RenderAssessmentJson(outcome, options);
  }

  static dma::SkuRecommendationPipeline* pipeline_;
};

dma::SkuRecommendationPipeline* StreamFixture::pipeline_ = nullptr;

// A constant-valued batch over the five standard dimensions; `cpu_scale`
// perturbs only the CPU column so drift tests trip exactly one dimension.
telemetry::PerfTrace ConstantBatch(std::size_t rows, double cpu_scale = 1.0) {
  telemetry::PerfTrace batch;
  EXPECT_TRUE(
      batch.SetSeries(ResourceDim::kCpu,
                      std::vector<double>(rows, 0.5 * cpu_scale)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kMemoryGb,
                              std::vector<double>(rows, 4.0)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kIops,
                              std::vector<double>(rows, 800.0)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kIoLatencyMs,
                              std::vector<double>(rows, 7.0)).ok());
  EXPECT_TRUE(batch.SetSeries(ResourceDim::kStorageGb,
                              std::vector<double>(rows, 40.0)).ok());
  return batch;
}

// ---------------------------------------------------------------------------
// Differential harness: the StreamingTrace ring vs a shadow deque rebuilt
// from scratch at every step.

struct Harness {
  std::vector<ResourceDim> dims;
  StreamingTrace trace;
  std::deque<std::vector<double>> shadow;

  Harness(std::vector<ResourceDim> d, std::size_t capacity)
      : dims(std::move(d)), trace(dims, capacity) {}

  void Append(const std::vector<double>& row) {
    if (trace.full()) Evict();
    shadow.push_back(row);
    ASSERT_TRUE(trace.Append(row).ok());
  }

  void Evict() {
    ASSERT_FALSE(shadow.empty());
    ASSERT_TRUE(trace.PopFront().ok());
    shadow.pop_front();
  }

  telemetry::PerfTrace ShadowTrace() const {
    telemetry::PerfTrace out;
    for (std::size_t k = 0; k < dims.size(); ++k) {
      std::vector<double> column(shadow.size());
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        column[i] = shadow[i][k];
      }
      EXPECT_TRUE(out.SetSeries(dims[k], std::move(column)).ok());
    }
    return out;
  }

  // The step invariant: the materialised window and the window mean the
  // drift check reads both equal a from-scratch rebuild.
  void Verify() const {
    ASSERT_EQ(trace.size(), shadow.size());
    const telemetry::PerfTrace shadow_trace = ShadowTrace();
    const telemetry::PerfTrace materialized = trace.Materialize();
    for (ResourceDim dim : dims) {
      ASSERT_EQ(materialized.Values(dim), shadow_trace.Values(dim));
      ASSERT_EQ(trace.Mean(dim), stats::Mean(shadow_trace.Values(dim)))
          << catalog::ResourceDimName(dim);
    }
  }
};

// Quantized values make value ties common on every step, not just on
// pathological inputs.
std::vector<double> QuantizedRow(Rng& rng) {
  const double q = std::floor(rng.Uniform() * 8.0) / 4.0;  // {0, .25, .., 1.75}
  const double q2 = std::floor(rng.Uniform() * 8.0) / 4.0;
  const double q3 = std::floor(rng.Uniform() * 8.0) / 4.0;
  const double q4 = std::floor(rng.Uniform() * 8.0) / 4.0;
  return {0.4 * q, 2.0 + q2, 100.0 + 400.0 * q3, 1.0 + q4};
}

std::vector<ResourceDim> DefaultDims() {
  return {ResourceDim::kCpu, ResourceDim::kMemoryGb, ResourceDim::kIops,
          ResourceDim::kIoLatencyMs};
}

TEST_F(StreamFixture, TenThousandStepScheduleMatchesRebuild) {
  Harness h(DefaultDims(), 96);
  Rng rng(20260808);
  for (int step = 0; step < 10000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step != 0 && step % 1500 == 0) {
      // Periodic full drain: the all-evicted edge mid-schedule, then the
      // window refills from empty with already-large sequence numbers.
      while (!h.shadow.empty()) {
        ASSERT_NO_FATAL_FAILURE(h.Evict());
      }
    } else if (!h.shadow.empty() && rng.Uniform() < 0.3) {
      ASSERT_NO_FATAL_FAILURE(h.Evict());
    } else {
      ASSERT_NO_FATAL_FAILURE(h.Append(QuantizedRow(rng)));
    }
    ASSERT_NO_FATAL_FAILURE(h.Verify());

    // Sampled end-to-end equivalence: assessing the materialised window
    // equals assessing the shadow, byte for byte.
    if (step % 613 == 0 && h.shadow.size() >= 24) {
      const dma::StageMask mask = dma::kStagePreprocess | dma::kStageQuality |
                                  dma::kStageLayout | dma::kStageRecommend;
      dma::AssessmentRequest from_window;
      from_window.customer_id = "differential";
      from_window.target = Deployment::kSqlDb;
      from_window.database_traces = {h.trace.Materialize()};
      dma::AssessmentRequest from_shadow = from_window;
      from_shadow.database_traces = {h.ShadowTrace()};
      StatusOr<dma::AssessmentOutcome> window_outcome =
          pipeline_->AssessStages(from_window, mask);
      StatusOr<dma::AssessmentOutcome> shadow_outcome =
          pipeline_->AssessStages(from_shadow, mask);
      ASSERT_TRUE(window_outcome.ok()) << window_outcome.status().ToString();
      ASSERT_TRUE(shadow_outcome.ok()) << shadow_outcome.status().ToString();
      ASSERT_EQ(StableJson(*window_outcome), StableJson(*shadow_outcome));
    }
  }
  // The schedule really wrapped the ring many times over.
  EXPECT_GT(h.trace.next_seq(), 2 * h.trace.capacity());
}

TEST(StreamDifferentialTest, TinyWindowEdgesMatchRebuild) {
  // Capacity 4: every append past the fourth wraps a slot; drains hit the
  // single-row and empty states repeatedly.
  Harness h(DefaultDims(), 4);
  Rng rng(7);
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step % 37 == 0) {
      while (!h.shadow.empty()) ASSERT_NO_FATAL_FAILURE(h.Evict());
    } else if (!h.shadow.empty() && rng.Uniform() < 0.4) {
      ASSERT_NO_FATAL_FAILURE(h.Evict());
    } else {
      ASSERT_NO_FATAL_FAILURE(h.Append(QuantizedRow(rng)));
    }
    ASSERT_NO_FATAL_FAILURE(h.Verify());
  }
}

TEST(StreamingTraceTest, AppendEvictProtocolAndErrors) {
  StreamingTrace trace({ResourceDim::kCpu}, 1);
  EXPECT_TRUE(trace.empty());
  EXPECT_FALSE(trace.PopFront().ok());
  EXPECT_FALSE(trace.Append({1.0, 2.0}).ok());  // row/dims mismatch

  StatusOr<std::uint64_t> first = trace.Append({0.5});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  EXPECT_TRUE(trace.full());
  // Full window refuses appends: the caller must evict first so borrowers
  // can observe the departing row.
  EXPECT_FALSE(trace.Append({0.7}).ok());
  ASSERT_TRUE(trace.PopFront().ok());
  StatusOr<std::uint64_t> second = trace.Append({0.7});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  EXPECT_EQ(trace.first_seq(), 1u);
  EXPECT_EQ(trace.ValueAt(ResourceDim::kCpu, 1), 0.7);
  EXPECT_EQ(trace.Mean(ResourceDim::kCpu), 0.7);
  EXPECT_EQ(trace.Mean(ResourceDim::kIops), 0.0);  // absent dimension

  const telemetry::PerfTrace single = trace.Materialize();
  EXPECT_EQ(single.num_samples(), 1u);
  EXPECT_EQ(single.Values(ResourceDim::kCpu)[0], 0.7);
}

// ---------------------------------------------------------------------------
// CustomerWindow.

TEST(CustomerWindowTest, WindowMeanMatchesRebuild) {
  MonitorOptions options;
  options.window_rows = 64;
  CustomerWindow window("exact", {ResourceDim::kCpu, ResourceDim::kIops},
                        options);
  Rng rng(23);
  telemetry::PerfTrace batch;
  std::vector<double> cpu(100), iops(100);
  for (std::size_t i = 0; i < 100; ++i) {
    cpu[i] = std::floor(rng.Uniform() * 8.0) / 4.0;
    iops[i] = 100.0 * std::floor(rng.Uniform() * 8.0);
  }
  ASSERT_TRUE(batch.SetSeries(ResourceDim::kCpu, cpu).ok());
  ASSERT_TRUE(batch.SetSeries(ResourceDim::kIops, iops).ok());
  StatusOr<CustomerWindow::BatchResult> result = window.Append(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->evicted, 36u);  // the ring holds exactly window_rows
  EXPECT_EQ(window.resident_rows(), 64u);
  EXPECT_EQ(window.total_rows(), 100u);

  const telemetry::PerfTrace resident = window.MaterializeTrace();
  EXPECT_EQ(resident.Values(ResourceDim::kCpu).front(), cpu[36]);
  EXPECT_EQ(window.WindowMean(ResourceDim::kCpu),
            stats::Mean(resident.Values(ResourceDim::kCpu)));
  EXPECT_EQ(window.WindowMean(ResourceDim::kIops),
            stats::Mean(resident.Values(ResourceDim::kIops)));
}

// ---------------------------------------------------------------------------
// Monitor policy: initial assessment, drift-gated re-assessment, masks.

TEST_F(StreamFixture, InitialAssessmentThenDriftReassessOnlyMaskedStages) {
  MonitorOptions options;
  options.window_rows = 96;
  options.min_assess_rows = 48;
  options.drift_tolerance = 0.25;
  StreamMonitor monitor(pipeline_, options);

  const double baseline_runs_before =
      CounterValue("stream.stage_runs.pipeline.baseline");
  const double confidence_runs_before =
      CounterValue("stream.stage_runs.pipeline.confidence");
  const double recommend_runs_before =
      CounterValue("stream.stage_runs.pipeline.recommend");
  const double appended_before = CounterValue("stream.appended");
  const double evicted_before = CounterValue("stream.evicted");

  // Batch 1: below min_assess_rows — no assessment yet.
  StatusOr<MonitorEvent> e0 = monitor.Ingest("acme", ConstantBatch(24));
  ASSERT_TRUE(e0.ok()) << e0.status().ToString();
  EXPECT_FALSE(e0->assessed);
  EXPECT_EQ(e0->resident, 24u);

  // Batch 2 crosses the threshold: ONE initial assessment over everything
  // but confidence (no current SKU, so no rightsizing either).
  StatusOr<MonitorEvent> e1 = monitor.Ingest("acme", ConstantBatch(24));
  ASSERT_TRUE(e1.ok());
  EXPECT_TRUE(e1->assessed);
  EXPECT_TRUE(e1->initial);
  const dma::StageMask initial_mask =
      dma::kStagePreprocess | dma::kStageQuality | dma::kStageLayout |
      dma::kStageRecommend | dma::kStageBaseline;
  EXPECT_EQ(e1->stage_mask, initial_mask);
  EXPECT_EQ(e1->completed_stages, initial_mask);
  EXPECT_FALSE(e1->elastic_sku_id.empty());

  // Batch 3: same distribution — no drift, no assessment.
  StatusOr<MonitorEvent> e2 = monitor.Ingest("acme", ConstantBatch(24));
  ASSERT_TRUE(e2.ok());
  EXPECT_FALSE(e2->assessed);
  EXPECT_TRUE(e2->drifted_dims.empty());

  // Batch 4 triples CPU: window mean moves well past tolerance on exactly
  // one dimension, so the monitor re-assesses ONLY the drift-affected
  // stages — no baseline, never confidence.
  StatusOr<MonitorEvent> e3 = monitor.Ingest("acme", ConstantBatch(24, 3.0));
  ASSERT_TRUE(e3.ok());
  EXPECT_TRUE(e3->assessed);
  EXPECT_FALSE(e3->initial);
  ASSERT_EQ(e3->drifted_dims.size(), 1u);
  EXPECT_EQ(e3->drifted_dims[0], ResourceDim::kCpu);
  const dma::StageMask drift_mask = dma::kStagePreprocess |
                                    dma::kStageQuality | dma::kStageLayout |
                                    dma::kStageRecommend;
  EXPECT_EQ(e3->stage_mask, drift_mask);
  EXPECT_EQ(e3->completed_stages, drift_mask);

  // The per-stage counters are the proof: baseline ran once (the initial
  // assessment), confidence never, recommend twice.
  EXPECT_EQ(CounterValue("stream.stage_runs.pipeline.baseline") -
                baseline_runs_before,
            1.0);
  EXPECT_EQ(CounterValue("stream.stage_runs.pipeline.confidence") -
                confidence_runs_before,
            0.0);
  EXPECT_EQ(CounterValue("stream.stage_runs.pipeline.recommend") -
                recommend_runs_before,
            2.0);

  // Accounting identity: every appended row is either resident or evicted.
  StatusOr<MonitorEvent> e4 = monitor.Ingest("acme", ConstantBatch(24, 3.0));
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4->evicted, 24u);
  EXPECT_EQ(e4->resident, 96u);
  const double appended_delta = CounterValue("stream.appended") -
                                appended_before;
  const double evicted_delta = CounterValue("stream.evicted") - evicted_before;
  EXPECT_EQ(appended_delta, 120.0);
  EXPECT_EQ(appended_delta - evicted_delta,
            static_cast<double>(monitor.window("acme")->resident_rows()));
  EXPECT_EQ(monitor.num_customers(), 1u);
}

TEST_F(StreamFixture, RightsizingRidesAlongWithCurrentSku) {
  MonitorOptions options;
  options.window_rows = 96;
  options.min_assess_rows = 24;
  options.current_sku_id = "DB_GP_Gen5_40";
  StreamMonitor monitor(pipeline_, options);

  StatusOr<MonitorEvent> initial = monitor.Ingest("beta", ConstantBatch(24));
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  ASSERT_TRUE(initial->assessed);
  EXPECT_TRUE(initial->initial);
  EXPECT_TRUE(initial->stage_mask & dma::kStageRightsizing);
  EXPECT_TRUE(initial->completed_stages & dma::kStageRightsizing);
  EXPECT_FALSE(initial->stage_mask & dma::kStageConfidence);

  StatusOr<MonitorEvent> drift = monitor.Ingest("beta", ConstantBatch(48, 3.0));
  ASSERT_TRUE(drift.ok());
  ASSERT_TRUE(drift->assessed);
  EXPECT_FALSE(drift->initial);
  EXPECT_TRUE(drift->completed_stages & dma::kStageRightsizing);
  EXPECT_FALSE(drift->completed_stages & dma::kStageBaseline);
}

TEST_F(StreamFixture, BatchMissingWindowDimensionFailsWithoutSideEffects) {
  MonitorOptions options;
  options.min_assess_rows = 1000;  // keep the pipeline out of this test
  StreamMonitor monitor(pipeline_, options);
  ASSERT_TRUE(monitor.Ingest("gamma", ConstantBatch(8)).ok());
  ASSERT_EQ(monitor.window("gamma")->resident_rows(), 8u);

  telemetry::PerfTrace narrow;
  ASSERT_TRUE(
      narrow.SetSeries(ResourceDim::kCpu, std::vector<double>(4, 0.5)).ok());
  StatusOr<MonitorEvent> bad = monitor.Ingest("gamma", narrow);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(monitor.window("gamma")->resident_rows(), 8u);

  telemetry::PerfTrace empty;
  EXPECT_FALSE(monitor.Ingest("delta", empty).ok());
  EXPECT_EQ(monitor.window("delta"), nullptr);
}

// ---------------------------------------------------------------------------
// Seeded drift soak: a pure-hash DriftPlan ramps one dimension mid-stream;
// the monitor must trip within two batches of the planned onset, re-assess
// only the masked stages, and keep the row accounting identity.

TEST_F(StreamFixture, DriftSoakTripsAtPlannedTick) {
  constexpr std::size_t kHorizon = 240;
  constexpr std::size_t kBatchRows = 24;
  const sim::DriftPlan plan(917, 1.0, 4.0, kHorizon);

  // Constant series make the pre-ramp window means exact, so the trip tick
  // is analytically predictable from the plan alone (pure hash: any session
  // replaying seed 917 sees the same ramp).
  telemetry::PerfTrace full = ConstantBatch(kHorizon);
  const std::vector<ResourceDim> dims = full.PresentDims();
  std::string key;
  sim::DriftPlan::Ramp ramp;
  for (int i = 0; i < 64 && key.empty(); ++i) {
    const std::string candidate = "cust" + std::to_string(i);
    const sim::DriftPlan::Ramp r = plan.RampFor(candidate, dims);
    if (r.active && r.factor >= 3.0) {
      key = candidate;
      ramp = r;
    }
  }
  ASSERT_FALSE(key.empty()) << "no key drew a factor >= 3.0 ramp";
  ASSERT_GE(ramp.start_row, kHorizon / 4);
  ASSERT_LT(ramp.start_row, 3 * kHorizon / 4);
  ASSERT_TRUE(plan.ApplyTo(key, &full).ok());

  MonitorOptions options;
  options.window_rows = 96;
  options.min_assess_rows = 48;
  options.drift_tolerance = 0.25;
  StreamMonitor monitor(pipeline_, options);
  const double appended_before = CounterValue("stream.appended");
  const double evicted_before = CounterValue("stream.evicted");
  const double trips_before = CounterValue("stream.drift_trips");

  int first_reassess_batch = -1;
  int initial_batch = -1;
  for (std::size_t b = 0; b < kHorizon / kBatchRows; ++b) {
    const telemetry::PerfTrace batch =
        full.Window(b * kBatchRows, kBatchRows);
    StatusOr<MonitorEvent> event = monitor.Ingest(key, batch);
    ASSERT_TRUE(event.ok()) << "batch " << b << ": "
                            << event.status().ToString();
    if (event->assessed && event->initial) {
      initial_batch = static_cast<int>(b);
    }
    if (event->assessed && !event->initial && first_reassess_batch < 0) {
      first_reassess_batch = static_cast<int>(b);
      ASSERT_EQ(event->drifted_dims.size(), 1u);
      EXPECT_EQ(event->drifted_dims[0], ramp.dim);
      EXPECT_FALSE(event->completed_stages & dma::kStageBaseline);
      EXPECT_FALSE(event->completed_stages & dma::kStageConfidence);
      EXPECT_TRUE(event->completed_stages & dma::kStageRecommend);
    }
  }
  EXPECT_EQ(initial_batch, 1);  // 48 rows = min_assess_rows after batch 1
  ASSERT_GE(first_reassess_batch, 0) << "the planned ramp never tripped";
  const int planned_batch = static_cast<int>(ramp.start_row / kBatchRows);
  EXPECT_GE(first_reassess_batch, planned_batch);
  EXPECT_LE(first_reassess_batch, planned_batch + 2);
  EXPECT_GE(CounterValue("stream.drift_trips") - trips_before, 1.0);

  // appended == evicted + resident over the whole soak.
  const double appended_delta =
      CounterValue("stream.appended") - appended_before;
  const double evicted_delta = CounterValue("stream.evicted") - evicted_before;
  EXPECT_EQ(appended_delta, static_cast<double>(kHorizon));
  EXPECT_EQ(appended_delta - evicted_delta,
            static_cast<double>(monitor.window(key)->resident_rows()));
}

// ---------------------------------------------------------------------------
// Concurrency soak (TSan target): one appender streams batches while
// readers snapshot window means and materialised traces through the
// window's lock.

TEST(StreamConcurrencySoakTest, ReadersRaceAppender) {
  MonitorOptions options;
  options.window_rows = 64;
  CustomerWindow window("racy", {ResourceDim::kCpu, ResourceDim::kIops},
                        options);

  constexpr int kBatches = 200;
  constexpr std::size_t kRows = 8;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread appender([&]() {
    Rng rng(5);
    for (int b = 0; b < kBatches; ++b) {
      telemetry::PerfTrace batch;
      std::vector<double> cpu(kRows), iops(kRows);
      for (std::size_t i = 0; i < kRows; ++i) {
        cpu[i] = rng.Uniform();
        iops[i] = 1000.0 * rng.Uniform();
      }
      if (!batch.SetSeries(ResourceDim::kCpu, std::move(cpu)).ok() ||
          !batch.SetSeries(ResourceDim::kIops, std::move(iops)).ok() ||
          !window.Append(batch).ok()) {
        ++failures;
        break;
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      while (!done.load()) {
        const double cpu = window.WindowMean(ResourceDim::kCpu);
        const double iops = window.WindowMean(ResourceDim::kIops);
        const telemetry::PerfTrace snapshot = window.MaterializeTrace();
        if (cpu < 0.0 || cpu > 1.0 || iops < 0.0 || iops > 1000.0 ||
            snapshot.num_samples() > options.window_rows) {
          ++failures;
          break;
        }
      }
    });
  }
  appender.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(window.resident_rows(), 64u);
  EXPECT_EQ(window.total_rows(), kBatches * kRows);

  // After the race, the window mean still equals a rebuild.
  const telemetry::PerfTrace resident = window.MaterializeTrace();
  EXPECT_EQ(window.WindowMean(ResourceDim::kCpu),
            stats::Mean(resident.Values(ResourceDim::kCpu)));
}

// ---------------------------------------------------------------------------
// DriftPlan / RampDimension / SpoolCustomerId satellites.

TEST(DriftPlanTest, PureHashRampIsReplayableAndBounded) {
  const std::vector<ResourceDim> dims = {ResourceDim::kCpu,
                                         ResourceDim::kMemoryGb,
                                         ResourceDim::kIops};
  const sim::DriftPlan plan_a(42, 0.5, 3.0, 400);
  const sim::DriftPlan plan_b(42, 0.5, 3.0, 400);
  int active = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "tenant" + std::to_string(i);
    const sim::DriftPlan::Ramp first = plan_a.RampFor(key, dims);
    const sim::DriftPlan::Ramp replay = plan_b.RampFor(key, dims);
    ASSERT_EQ(first.active, replay.active);
    if (!first.active) continue;
    ++active;
    ASSERT_EQ(first.dim, replay.dim);
    ASSERT_EQ(first.start_row, replay.start_row);
    ASSERT_EQ(first.factor, replay.factor);
    EXPECT_GE(first.start_row, 100u);  // middle half of the horizon
    EXPECT_LT(first.start_row, 300u);
    EXPECT_GT(first.factor, 1.0);
    EXPECT_LE(first.factor, 3.0);
    EXPECT_NE(std::find(dims.begin(), dims.end(), first.dim), dims.end());
  }
  // drift_fraction 0.5 picks roughly half the keys.
  EXPECT_GT(active, 60);
  EXPECT_LT(active, 140);

  const sim::DriftPlan never(42, 0.0, 3.0, 400);
  EXPECT_FALSE(never.RampFor("tenant0", dims).active);
  const sim::DriftPlan always(42, 1.0, 3.0, 400);
  EXPECT_TRUE(always.RampFor("tenant0", dims).active);
}

TEST(DriftPlanTest, ApplyToRampsExactlyThePlannedSuffix) {
  const sim::DriftPlan plan(77, 1.0, 2.5, 64);
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu,
                              std::vector<double>(64, 1.0)).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIops,
                              std::vector<double>(64, 100.0)).ok());
  const sim::DriftPlan::Ramp ramp = plan.RampFor("k", trace.PresentDims());
  ASSERT_TRUE(ramp.active);
  ASSERT_TRUE(plan.ApplyTo("k", &trace).ok());
  for (ResourceDim dim : trace.PresentDims()) {
    const std::vector<double>& values = trace.Values(dim);
    const double base = dim == ResourceDim::kCpu ? 1.0 : 100.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double expected = (dim == ramp.dim && i >= ramp.start_row)
                                  ? base * ramp.factor
                                  : base;
      ASSERT_EQ(values[i], expected)
          << catalog::ResourceDimName(dim) << " row " << i;
    }
  }

  // Unchosen keys are a strict no-op.
  const sim::DriftPlan none(77, 0.0, 2.5, 64);
  telemetry::PerfTrace untouched;
  ASSERT_TRUE(untouched.SetSeries(ResourceDim::kCpu,
                                  std::vector<double>(64, 1.0)).ok());
  ASSERT_TRUE(none.ApplyTo("k", &untouched).ok());
  EXPECT_EQ(untouched.Values(ResourceDim::kCpu), std::vector<double>(64, 1.0));
}

TEST(RampDimensionTest, ScalesSuffixAndBumpsGeneration) {
  telemetry::PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1.0, 1.0, 1.0, 1.0}).ok());
  ASSERT_TRUE(
      workload::RampDimension(&trace, ResourceDim::kCpu, 2, 3.0).ok());
  EXPECT_EQ(trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 1.0, 3.0, 3.0}));

  // Past-the-end start is a documented no-op.
  ASSERT_TRUE(
      workload::RampDimension(&trace, ResourceDim::kCpu, 10, 3.0).ok());
  EXPECT_EQ(trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 1.0, 3.0, 3.0}));

  EXPECT_FALSE(
      workload::RampDimension(&trace, ResourceDim::kIops, 0, 2.0).ok());
  EXPECT_FALSE(workload::RampDimension(nullptr, ResourceDim::kCpu, 0, 2.0).ok());
}

TEST(SpoolCustomerIdTest, StripsFromFirstDot) {
  EXPECT_EQ(serve::SpoolCustomerId("/spool/acme.0001.csv"), "acme");
  EXPECT_EQ(serve::SpoolCustomerId("/spool/acme.0002.csv"), "acme");
  EXPECT_EQ(serve::SpoolCustomerId("plain.csv"), "plain");
  EXPECT_EQ(serve::SpoolCustomerId("/a/b/noext"), "noext");
}

// ---------------------------------------------------------------------------
// `doppler monitor` CLI end to end over a spool directory.

class MonitorSpoolDir {
 public:
  explicit MonitorSpoolDir(const std::string& name) {
    dir_ = std::filesystem::temp_directory_path() /
           ("doppler_stream_test_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~MonitorSpoolDir() { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& text) {
    const std::filesystem::path path = dir_ / name;
    EXPECT_TRUE(WriteTextFileAtomic(path.string(), text).ok());
    return path.string();
  }

  std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

constexpr char kBatchCsv[] =
    "t_seconds,cpu,memory,iops\n"
    "0,0.2,4.0,300\n600,0.5,4.5,800\n1200,0.9,5.0,2500\n"
    "1800,0.4,4.2,700\n2400,0.6,4.8,1200\n";

TEST(MonitorCliTest, EndToEndJsonSpool) {
  MonitorSpoolDir spool("cli_json");
  // Two numbered drops address ONE customer stream ("acme"), unlike serve
  // where each file is an independent request.
  spool.Write("acme.0001.csv", kBatchCsv);
  spool.Write("acme.0002.csv", kBatchCsv);
  std::ostringstream out;
  const int code = dma::CliMain(
      {"monitor", "--spool", spool.path(), "--rounds", "1", "--window-rows",
       "32", "--min-assess-rows", "4", "--json"},
      out);
  EXPECT_EQ(code, 0) << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"customer_id\":\"acme\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"initial\":true"), std::string::npos) << text;
  EXPECT_NE(text.find("\"resident\":5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"resident\":10"), std::string::npos) << text;
}

TEST(MonitorCliTest, TextSummaryWritesOutFile) {
  MonitorSpoolDir spool("cli_text");
  spool.Write("acme.0001.csv", kBatchCsv);
  const std::string log_path = spool.path() + "/monitor.log";
  std::ostringstream out;
  const int code = dma::CliMain(
      {"monitor", "--spool", spool.path(), "--rounds", "1", "--window-rows",
       "32", "--min-assess-rows", "4", "--out", log_path},
      out);
  EXPECT_EQ(code, 0) << out.str();
  EXPECT_NE(out.str().find("wrote monitor log for 1 batches"),
            std::string::npos)
      << out.str();
  std::ifstream log(log_path);
  std::stringstream contents;
  contents << log.rdbuf();
  EXPECT_NE(contents.str().find("monitored 1 batches across 1 customers"),
            std::string::npos)
      << contents.str();
}

TEST(MonitorCliTest, EmptySpoolReturnsNotFound) {
  MonitorSpoolDir spool("cli_empty");
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"monitor", "--spool", spool.path(), "--rounds",
                          "1", "--poll-ms", "1"},
                         out),
            4);  // kNotFound
  std::ostringstream err;
  EXPECT_EQ(dma::CliMain({"monitor"}, err), 3);  // missing --spool
}

}  // namespace
}  // namespace doppler::stream
