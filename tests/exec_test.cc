// The execution layer's load-bearing promises, under test:
//
//  1. The ThreadPool is safe — bounded queue, caller-runs overflow, nested
//     fan-out without deadlock — and its ParallelFor covers [0, n) exactly
//     once with chunk boundaries that depend only on (n, pool size).
//  2. The fleet slot runner (FleetAssessor::ForEachSlot) runs every slot
//     exactly once on at most min(jobs, n) threads, on the calling thread
//     alone when one job or one slot leaves nothing to share, and hands a
//     slot's exception to the caller.
//  3. The parallel fleet/curve paths are DETERMINISTIC: assessing the same
//     fleet at --jobs 1, 2 and 8 produces byte-identical JSON reports and
//     identical engine counter totals. Parallelism buys wall-clock only.
//
// The concurrency-heavy cases double as the TSan subject in tools/check.sh.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "exec/fleet_assessor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

TEST(ThreadPoolTest, RunsSubmittedTasksToCompletion) {
  exec::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& future : futures) future.wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ThreadCountClampedToAtLeastOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran.load());
}

// When the queue is full the submitting thread must run the task inline
// (ready future on return) instead of blocking — the property that makes
// nested fan-out deadlock-free.
TEST(ThreadPoolTest, CallerRunsOnQueueOverflow) {
  exec::ThreadPool pool(1, /*queue_capacity=*/1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  // Occupy the only worker and WAIT until it has dequeued the task, so the
  // queue state below is deterministic.
  std::future<void> blocked = pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  // Fill the (empty again) queue to its capacity of one.
  std::future<void> queued = pool.Submit([] {});
  obs::Counter* inline_runs =
      obs::DefaultMetrics().GetCounter("exec.tasks_inline");
  const std::uint64_t inline_before = inline_runs->Value();
  std::atomic<bool> ran_inline{false};
  // Queue full -> this must execute on the calling thread, synchronously.
  std::future<void> overflow =
      pool.Submit([&ran_inline] { ran_inline = true; });
  EXPECT_TRUE(ran_inline.load());
  EXPECT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_GE(inline_runs->Value(), inline_before + 1);
  release.set_value();
  blocked.wait();
  queued.wait();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5}) {
    exec::ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{64}, std::size_t{501}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&hits](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

// Chunk boundaries are a pure function of (n, pool size): the documented
// determinism contract. Two pools of equal size must produce the same
// partition, run after run.
TEST(ThreadPoolTest, ParallelForChunksAreDeterministic) {
  const std::size_t n = 103;
  auto partition = [n](exec::ThreadPool& pool) {
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    pool.ParallelFor(n, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert({begin, end});
    });
    return chunks;
  };
  exec::ThreadPool a(3);
  exec::ThreadPool b(3);
  const auto chunks_a = partition(a);
  const auto chunks_b = partition(b);
  EXPECT_EQ(chunks_a, chunks_b);
  // Contiguous cover of [0, n).
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : chunks_a) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LT(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, n);
}

// A worker that fans out through the SAME pool and waits must not deadlock:
// overflowing sub-tasks run on the waiting thread itself.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  exec::ThreadPool pool(2, /*queue_capacity=*/2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      pool.ParallelFor(16, [&](std::size_t inner_begin,
                               std::size_t inner_end) {
        leaves.fetch_add(static_cast<int>(inner_end - inner_begin));
      });
    }
  });
  EXPECT_EQ(leaves.load(), 8 * 16);
}

TEST(ThreadPoolTest, QueueDrainsAndGaugeReturnsToZero) {
  {
    exec::ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 50; ++i) {
      futures.push_back(pool.Submit([] {}));
    }
    for (auto& future : futures) future.wait();
    EXPECT_EQ(pool.QueueDepth(), 0u);
  }
  const obs::Gauge* depth =
      obs::DefaultMetrics().FindGauge("exec.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->Value(), 0.0);
}

// Concurrent Probability calls on one shared trace — the exact sharing
// pattern of the parallel curve build, exercised hard for TSan.
TEST(ThreadPoolTest, ConcurrentColumnarScansAgreeWithSerial) {
  Rng rng(41);
  workload::WorkloadSpec spec;
  spec.name = "tsan-stress";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Spiky(2.0, 6.0, 0.8, 30.0);
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::DailyPeriodic(8.0, 5.0);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(900.0, 700.0);
  StatusOr<telemetry::PerfTrace> trace = workload::GenerateTrace(spec, 3.0, &rng);
  ASSERT_TRUE(trace.ok());
  const catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
  const core::NonParametricEstimator estimator;

  std::vector<double> serial;
  for (const catalog::Sku& sku : catalog.skus()) {
    StatusOr<double> p = estimator.Probability(*trace, sku.Capacities());
    ASSERT_TRUE(p.ok());
    serial.push_back(*p);
  }

  exec::ThreadPool pool(4);
  std::vector<double> parallel(serial.size());
  pool.ParallelFor(serial.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      StatusOr<double> p =
          estimator.Probability(*trace, catalog.skus()[i].Capacities());
      ASSERT_TRUE(p.ok());
      parallel[i] = *p;
    }
  });
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << catalog.skus()[i].id;
  }
}

// ---------------------------------------------------------------------------
// The fleet slot runner: every slot once, on at most min(jobs, n) threads.

// The ids of the threads that ran `n` slots at `jobs`; every 7th slot
// costs more, and `runs[i]` counts how often slot i ran.
std::set<std::thread::id> RunSlots(std::size_t n, int jobs,
                                   std::vector<std::atomic<int>>* runs) {
  const exec::FleetAssessor assessor(/*pipeline=*/nullptr, jobs);
  std::mutex mu;
  std::set<std::thread::id> threads;
  assessor.ForEachSlot(n, [&](std::size_t i) {
    (*runs)[i].fetch_add(1);
    if (i % 7 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  return threads;
}

TEST(FleetSlotRunnerTest, EverySlotRunsOnceOnAtMostMinJobsThreads) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{1000}}) {
    for (int jobs : {1, 2, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " jobs=" + std::to_string(jobs));
      std::vector<std::atomic<int>> runs(n);
      const std::set<std::thread::id> threads = RunSlots(n, jobs, &runs);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "slot " << i;
      }
      EXPECT_LE(threads.size(),
                std::min(n, static_cast<std::size_t>(jobs)));
    }
  }
}

TEST(FleetSlotRunnerTest, OneSlotOrOneJobRunsOnTheCallingThread) {
  for (const auto& [n, jobs] :
       {std::pair<std::size_t, int>{0, 8}, {1, 1}, {1, 2}, {1, 8}, {3, 1},
        {1000, 1}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " jobs=" + std::to_string(jobs));
    std::vector<std::atomic<int>> runs(n);
    const std::set<std::thread::id> threads = RunSlots(n, jobs, &runs);
    if (n == 0) {
      EXPECT_TRUE(threads.empty());
    } else {
      EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
    }
  }
}

// A throwing slot stops the claiming, and its exception reaches the caller
// instead of ending the process on a worker thread.
TEST(FleetSlotRunnerTest, ASlotExceptionStopsClaimingAndReachesTheCaller) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const exec::FleetAssessor assessor(/*pipeline=*/nullptr, jobs);
    std::vector<std::atomic<int>> runs(200);
    EXPECT_THROW(assessor.ForEachSlot(runs.size(),
                                      [&runs](std::size_t i) {
                                        runs[i].fetch_add(1);
                                        if (i == 5) {
                                          throw std::runtime_error("slot 5");
                                        }
                                      }),
                 std::runtime_error);
    int ran = 0;
    for (const std::atomic<int>& count : runs) {
      EXPECT_LE(count.load(), 1);
      ran += count.load();
    }
    // Every slot claimed before slot 5 ran; alone, nothing ran after it.
    if (jobs == 1) {
      EXPECT_EQ(ran, 6);
    } else {
      EXPECT_GE(ran, 6);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet determinism: byte-identical reports and identical counter totals at
// any job count.

telemetry::PerfTrace FleetTrace(std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "fleet-" + std::to_string(seed);
  const double s = 0.5 + static_cast<double>(seed % 5);
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Spiky(0.4 * s, 1.5 * s, 0.7, 25.0);
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::DailyPeriodic(3.0 * s, 2.0 * s);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(200.0 * s, 150.0 * s);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(5.0, 0.05);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 2.0, &rng);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

class FleetDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb,
        /*num_customers=*/30, /*seed=*/7);
    ASSERT_TRUE(model.ok());
    catalog_ = new catalog::SkuCatalog(std::move(catalog));
    model_ = new core::GroupModel(*std::move(model));
    requests_ = new std::vector<dma::AssessmentRequest>();
    for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
      dma::AssessmentRequest request;
      request.customer_id = "cust-" + std::to_string(seed);
      request.target = Deployment::kSqlDb;
      request.database_traces = {FleetTrace(seed)};
      requests_->push_back(std::move(request));
    }
    // One request exercises the bootstrap-confidence stage under the fleet
    // fan-out.
    (*requests_)[0].compute_confidence = true;
  }
  static void TearDownTestSuite() {
    delete requests_;
    delete model_;
    delete catalog_;
  }

  struct RunResult {
    std::string report;
    // Engine-counter deltas: [evaluations, samples, skus, assessments].
    std::array<std::uint64_t, 4> deltas{};
  };

  static RunResult AssessFleetWithJobs(int jobs) {
    obs::MetricsRegistry& metrics = obs::DefaultMetrics();
    obs::Counter* const evaluations =
        metrics.GetCounter("ppm.throttling_evaluations");
    obs::Counter* const samples = metrics.GetCounter("ppm.samples_scanned");
    obs::Counter* const skus = metrics.GetCounter("ppm.skus_evaluated");
    obs::Counter* const assessments =
        metrics.GetCounter("pipeline.assessments");
    const std::array<std::uint64_t, 4> before = {
        evaluations->Value(), samples->Value(), skus->Value(),
        assessments->Value()};

    dma::SkuRecommendationPipeline::Config config;
    config.num_threads = jobs;
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(
            {*catalog_, *model_}, config);
    EXPECT_TRUE(pipeline.ok());
    const exec::FleetAssessor assessor(&*pipeline, jobs);
    std::vector<StatusOr<dma::AssessmentOutcome>> outcomes =
        assessor.AssessAll(*requests_);

    std::vector<std::string> ids;
    for (const auto& request : *requests_) ids.push_back(request.customer_id);
    dma::AssessmentJsonOptions json_options;
    json_options.include_stage_seconds = false;  // The one wall-clock field.
    RunResult result;
    result.report =
        dma::RenderFleetAssessmentJson(ids, outcomes, json_options);
    result.deltas = {evaluations->Value() - before[0],
                     samples->Value() - before[1],
                     skus->Value() - before[2],
                     assessments->Value() - before[3]};
    return result;
  }

  static catalog::SkuCatalog* catalog_;
  static core::GroupModel* model_;
  static std::vector<dma::AssessmentRequest>* requests_;
};

catalog::SkuCatalog* FleetDeterminismTest::catalog_ = nullptr;
core::GroupModel* FleetDeterminismTest::model_ = nullptr;
std::vector<dma::AssessmentRequest>* FleetDeterminismTest::requests_ = nullptr;

TEST_F(FleetDeterminismTest, ReportsAreByteIdenticalAcrossJobCounts) {
  const RunResult serial = AssessFleetWithJobs(1);
  ASSERT_FALSE(serial.report.empty());
  // Sanity: all five assessments succeeded in the reference run.
  EXPECT_NE(serial.report.find("\"succeeded\":5"), std::string::npos);
  for (int jobs : {2, 8}) {
    const RunResult parallel = AssessFleetWithJobs(jobs);
    EXPECT_EQ(serial.report, parallel.report) << "jobs=" << jobs;
  }
}

TEST_F(FleetDeterminismTest, EngineCounterTotalsMatchAcrossJobCounts) {
  const RunResult serial = AssessFleetWithJobs(1);
  for (int jobs : {2, 8}) {
    const RunResult parallel = AssessFleetWithJobs(jobs);
    EXPECT_EQ(serial.deltas, parallel.deltas) << "jobs=" << jobs;
  }
}

TEST_F(FleetDeterminismTest, RepeatedRunsAtSameJobCountAreIdentical) {
  const RunResult first = AssessFleetWithJobs(2);
  const RunResult second = AssessFleetWithJobs(2);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.deltas, second.deltas);
}

TEST_F(FleetDeterminismTest, PerRequestFailuresStayInTheirSlots) {
  dma::SkuRecommendationPipeline::Config config;
  config.num_threads = 2;
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create({*catalog_, *model_}, config);
  ASSERT_TRUE(pipeline.ok());
  std::vector<dma::AssessmentRequest> requests = *requests_;
  requests[2].database_traces.clear();  // Invalid: no traces.
  const exec::FleetAssessor assessor(&*pipeline, 2);
  std::vector<StatusOr<dma::AssessmentOutcome>> outcomes =
      assessor.AssessAll(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].ok(), i != 2) << "slot " << i;
    if (outcomes[i].ok()) {
      EXPECT_EQ(outcomes[i]->customer_id, requests[i].customer_id);
    }
  }
}

// Stage names (and order) are part of the deterministic report even though
// per-stage seconds are wall-clock.
TEST_F(FleetDeterminismTest, StageTimingOrderIsStable) {
  dma::SkuRecommendationPipeline::Config config;
  config.num_threads = 4;
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create({*catalog_, *model_}, config);
  ASSERT_TRUE(pipeline.ok());
  StatusOr<dma::AssessmentOutcome> outcome =
      pipeline->Assess((*requests_)[1]);
  ASSERT_TRUE(outcome.ok());
  std::vector<std::string> stages;
  for (const dma::StageTiming& timing : outcome->stage_timings) {
    stages.push_back(timing.stage);
  }
  EXPECT_EQ(stages, (std::vector<std::string>{
                        "pipeline.preprocess", "pipeline.quality",
                        "pipeline.recommend", "pipeline.baseline"}));
}

}  // namespace
}  // namespace doppler
