// The serving layer's robustness contract, under test:
//
//  1. Admission control: a full queue sheds NOW with kResourceExhausted —
//     Submit never blocks and never queues unboundedly — and sustained
//     queue pressure sheds the confidence stage before whole requests.
//  2. Deadlines: expiry is checked cooperatively at stage boundaries; an
//     expired request ends with kDeadlineExceeded carrying exactly the
//     stages that completed. The shared cancel flag makes the boundary
//     where expiry lands DETERMINISTIC (no timer races in these tests).
//  3. Hot swap: SnapshotRegistry::Swap mid-flight never perturbs admitted
//     requests — they finish byte-identical to a single-threaded run
//     against their pinned epoch.
//  4. Retry: transient ingest failures back off with jitter, bounded by
//     the request deadline; terminal failures never retry.
//  5. The soak case (the TSan subject of tools/check.sh --soak) drives
//     overload + concurrent swaps and asserts every admitted request
//     reaches a terminal status with the accounting identity intact.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "catalog/catalog.h"
#include "dma/pipeline.h"
#include "dma/resource_report.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/assessment_service.h"
#include "serve/backoff.h"
#include "serve/snapshot_registry.h"
#include "serve/spool.h"
#include "sim/fault_injector.h"
#include "util/deadline.h"
#include "util/file_util.h"
#include "util/random.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

telemetry::PerfTrace ServeTrace(std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "serve-" + std::to_string(seed);
  const double s = 0.5 + static_cast<double>(seed % 5);
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Spiky(0.4 * s, 1.5 * s, 0.7, 25.0);
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::DailyPeriodic(3.0 * s, 2.0 * s);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(200.0 * s, 150.0 * s);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 2.0, &rng);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

dma::AssessmentRequest ServeRequest(std::uint64_t seed) {
  dma::AssessmentRequest request;
  request.customer_id = "serve-" + std::to_string(seed);
  request.target = Deployment::kSqlDb;
  request.database_traces = {ServeTrace(seed)};
  return request;
}

// The byte-identity oracle: the compact report with the one wall-clock
// field excluded (DESIGN.md §7's determinism contract).
std::string Render(const dma::AssessmentOutcome& outcome) {
  dma::AssessmentJsonOptions options;
  options.include_stage_seconds = false;
  return dma::RenderAssessmentJson(outcome, options);
}

// Two deliberately different serving generations: epoch A is the stock
// pipeline; epoch B uses the extended catalog and a different thresholding
// cutoff, so its reports differ byte-wise from A's for the same request.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog_a = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog_a, pricing, estimator, Deployment::kSqlDb,
        /*num_customers=*/30, /*seed=*/7);
    ASSERT_TRUE(model.ok());

    StatusOr<dma::SkuRecommendationPipeline> a =
        dma::SkuRecommendationPipeline::Create({catalog_a, *model});
    ASSERT_TRUE(a.ok());
    pipeline_a_ = std::make_shared<const dma::SkuRecommendationPipeline>(
        *std::move(a));

    catalog::CatalogOptions extended;
    extended.include_serverless = true;
    extended.include_hyperscale = true;
    dma::SkuRecommendationPipeline::Config config_b;
    config_b.rho = 0.25;
    StatusOr<dma::SkuRecommendationPipeline> b =
        dma::SkuRecommendationPipeline::Create(
            {catalog::BuildAzureLikeCatalog(extended), *model}, config_b);
    ASSERT_TRUE(b.ok());
    pipeline_b_ = std::make_shared<const dma::SkuRecommendationPipeline>(
        *std::move(b));
  }

  static void TearDownTestSuite() {
    pipeline_a_.reset();
    pipeline_b_.reset();
  }

  static std::string ReferenceRender(
      const dma::SkuRecommendationPipeline& pipeline, std::uint64_t seed) {
    StatusOr<dma::AssessmentOutcome> outcome =
        pipeline.Assess(ServeRequest(seed));
    EXPECT_TRUE(outcome.ok());
    return Render(*outcome);
  }

  static std::shared_ptr<const dma::SkuRecommendationPipeline> pipeline_a_;
  static std::shared_ptr<const dma::SkuRecommendationPipeline> pipeline_b_;
};

std::shared_ptr<const dma::SkuRecommendationPipeline>
    ServeFixture::pipeline_a_;
std::shared_ptr<const dma::SkuRecommendationPipeline>
    ServeFixture::pipeline_b_;

// --------------------------------------------------------------- Deadline.

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline deadline;
  EXPECT_FALSE(deadline.IsBounded());
  EXPECT_FALSE(deadline.IsExpired());
  deadline.Cancel();  // No flag: must be a harmless no-op.
  EXPECT_FALSE(deadline.IsExpired());
  EXPECT_GT(deadline.RemainingSeconds(), 1e18);
}

TEST(DeadlineTest, CancelTripsEveryCopy) {
  const Deadline original = Deadline::Cancellable();
  const Deadline copy = original;
  EXPECT_TRUE(copy.IsBounded());
  EXPECT_FALSE(copy.IsExpired());
  original.Cancel();
  EXPECT_TRUE(copy.IsExpired());
  EXPECT_LE(copy.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, ExpiredStartsExpired) {
  const Deadline deadline = Deadline::Expired();
  EXPECT_TRUE(deadline.IsBounded());
  EXPECT_TRUE(deadline.IsExpired());
  EXPECT_LE(deadline.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, AfterRespectsBudget) {
  const Deadline deadline = Deadline::After(60.0);
  EXPECT_TRUE(deadline.IsBounded());
  EXPECT_FALSE(deadline.IsExpired());
  EXPECT_GT(deadline.RemainingSeconds(), 1.0);
  EXPECT_LE(deadline.RemainingSeconds(), 60.0);
}

// ---------------------------------------------------------------- Backoff.

TEST(BackoffTest, DelaysGrowGeometricallyAndCap) {
  serve::BackoffPolicy policy;
  policy.initial_delay_seconds = 0.010;
  policy.multiplier = 2.0;
  policy.max_delay_seconds = 0.033;
  policy.jitter = 0.0;  // Jitter off: the schedule is exact.
  Rng rng(1);
  EXPECT_DOUBLE_EQ(serve::BackoffDelaySeconds(policy, 1, &rng), 0.010);
  EXPECT_DOUBLE_EQ(serve::BackoffDelaySeconds(policy, 2, &rng), 0.020);
  EXPECT_DOUBLE_EQ(serve::BackoffDelaySeconds(policy, 3, &rng), 0.033);
  EXPECT_DOUBLE_EQ(serve::BackoffDelaySeconds(policy, 4, &rng), 0.033);
}

TEST(BackoffTest, JitterOnlyShrinksAndIsSeedDeterministic) {
  serve::BackoffPolicy policy;
  policy.initial_delay_seconds = 0.1;
  policy.jitter = 0.5;
  Rng rng_a(9);
  Rng rng_b(9);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double a = serve::BackoffDelaySeconds(policy, attempt, &rng_a);
    const double b = serve::BackoffDelaySeconds(policy, attempt, &rng_b);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, policy.max_delay_seconds);
  }
}

TEST(BackoffTest, TerminalErrorsNeverRetry) {
  serve::BackoffPolicy policy;
  int attempts = 0;
  Rng rng(3);
  const Status status = serve::RetryWithBackoff(
      policy, Deadline(),
      [&]() -> Status {
        ++attempts;
        return InvalidArgumentError("terminal");
      },
      &rng);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(attempts, 1);
}

TEST(BackoffTest, TransientFailuresRetryUntilSuccess) {
  serve::BackoffPolicy policy;
  policy.initial_delay_seconds = 0.001;
  policy.max_delay_seconds = 0.002;
  int attempts = 0;
  Rng rng(3);
  const Status status = serve::RetryWithBackoff(
      policy, Deadline(),
      [&]() -> Status {
        ++attempts;
        return attempts < 3 ? UnavailableError("mid-write") : OkStatus();
      },
      &rng);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
}

TEST(BackoffTest, ExhaustingAttemptsReturnsLastTransientStatus) {
  serve::BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_delay_seconds = 0.001;
  policy.max_delay_seconds = 0.002;
  int attempts = 0;
  Rng rng(3);
  const Status status = serve::RetryWithBackoff(
      policy, Deadline(),
      [&]() -> Status {
        ++attempts;
        return UnavailableError("still mid-write");
      },
      &rng);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 3);
}

// The retry loop must never sleep past the deadline: when the next delay
// does not fit the remaining budget the wait is abandoned immediately.
TEST(BackoffTest, RetryNeverSleepsPastDeadline) {
  serve::BackoffPolicy policy;
  policy.max_attempts = 10;
  policy.initial_delay_seconds = 30.0;  // Far beyond the budget below.
  policy.max_delay_seconds = 30.0;
  int attempts = 0;
  Rng rng(3);
  const auto start = std::chrono::steady_clock::now();
  const Status status = serve::RetryWithBackoff(
      policy, Deadline::After(0.050),
      [&]() -> Status {
        ++attempts;
        return UnavailableError("mid-write");
      },
      &rng);
  const double elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(attempts, 1);
  EXPECT_LT(elapsed, 5.0);  // Nowhere near the 30 s delay.
}

TEST(BackoffTest, ExpiredDeadlineFailsBeforeFirstAttempt) {
  serve::BackoffPolicy policy;
  int attempts = 0;
  Rng rng(3);
  const Status status = serve::RetryWithBackoff(
      policy, Deadline::Expired(),
      [&]() -> Status {
        ++attempts;
        return OkStatus();
      },
      &rng);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(attempts, 0);
}

// ------------------------------------------------------------ Fault plans.

TEST(TransientIoPlanTest, DecisionsAreSeedDeterministic) {
  const sim::TransientIoPlan plan_a(41, 0.5, 3);
  const sim::TransientIoPlan plan_b(41, 0.5, 3);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "trace-" + std::to_string(i) + ".csv";
    EXPECT_EQ(plan_a.FailuresFor(key), plan_b.FailuresFor(key)) << key;
  }
}

TEST(TransientIoPlanTest, FractionBoundsInjection) {
  const sim::TransientIoPlan never(11, 0.0, 3);
  const sim::TransientIoPlan always(11, 1.0, 2);
  int injected = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "trace-" + std::to_string(i) + ".csv";
    EXPECT_EQ(never.FailuresFor(key), 0);
    const int failures = always.FailuresFor(key);
    EXPECT_GE(failures, 1) << key;
    EXPECT_LE(failures, 2) << key;
    injected += failures;
  }
  EXPECT_GT(injected, 0);
}

TEST(TransientIoPlanTest, HookFailsLeadingAttemptsThenSucceeds) {
  const sim::TransientIoPlan plan(17, 1.0, 2);
  const auto hook = plan.Hook();
  const std::string key = "spool/customer.csv";
  const int failures = plan.FailuresFor(key);
  ASSERT_GE(failures, 1);
  for (int attempt = 1; attempt <= failures; ++attempt) {
    EXPECT_EQ(hook(key, attempt).code(), StatusCode::kUnavailable);
  }
  EXPECT_TRUE(hook(key, failures + 1).ok());
}

TEST(StageLatencyPlanTest, DelaysArePureInSeedKeyAndStage) {
  const sim::StageLatencyPlan plan_a(23, 0.5, 0.010);
  const sim::StageLatencyPlan plan_b(23, 0.5, 0.010);
  const sim::StageLatencyPlan off(23, 0.0, 0.010);
  int delayed = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string key = "cust-" + std::to_string(i);
    for (const char* stage : {"pipeline.preprocess", "pipeline.recommend"}) {
      const double a = plan_a.DelaySeconds(key, stage);
      EXPECT_DOUBLE_EQ(a, plan_b.DelaySeconds(key, stage));
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 0.010);
      EXPECT_DOUBLE_EQ(off.DelaySeconds(key, stage), 0.0);
      delayed += a > 0.0;
    }
  }
  EXPECT_GT(delayed, 0);
}

// ----------------------------------------- Deadline checks in the pipeline.

// Cancelling from the stage hook lands the expiry at an exact boundary:
// the hook fires BEFORE the deadline check, so a cancel at "recommend"
// deterministically stops the pipeline with exactly the three stages
// before it complete.
TEST_F(ServeFixture, DeadlineExpiryMidPipelineKeepsCompletedPrefix) {
  dma::AssessmentRequest request = ServeRequest(5);
  request.deadline = Deadline::Cancellable();
  request.stage_boundary_hook = [&request](const char* stage) {
    if (std::string(stage) == "pipeline.recommend") {
      request.deadline.Cancel();
    }
  };
  dma::RequestContext ctx(request);
  const Status status = pipeline_a_->RunStages(ctx, dma::kAllStages);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.completed_stages,
            dma::kStagePreprocess | dma::kStageQuality | dma::kStageLayout);
  const dma::AssessmentOutcome outcome = pipeline_a_->Finish(ctx);
  EXPECT_EQ(outcome.completed_stages, ctx.completed_stages);
}

TEST_F(ServeFixture, AlreadyExpiredDeadlineCompletesNothing) {
  dma::AssessmentRequest request = ServeRequest(5);
  request.deadline = Deadline::Expired();
  dma::RequestContext ctx(request);
  const Status status = pipeline_a_->RunStages(ctx, dma::kAllStages);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.completed_stages, 0u);
}

TEST_F(ServeFixture, UnboundedDeadlineNeverInterferes) {
  dma::AssessmentRequest request = ServeRequest(5);
  dma::RequestContext ctx(request);
  ASSERT_TRUE(pipeline_a_->RunStages(ctx, dma::kAllStages).ok());
  EXPECT_EQ(ctx.completed_stages, dma::kAllStages);
}

// ------------------------------------------------------ Admission control.

// Wedges the single worker inside a request until `release` is set, so the
// queue state behind it is exactly controlled.
struct WorkerGate {
  std::promise<void> started;
  std::promise<void> release_promise;
  // Initialized after release_promise (declaration order is member init
  // order), so the future is retrieved from a constructed promise.
  std::shared_future<void> release;

  WorkerGate() : release(release_promise.get_future()) {}

  dma::AssessmentRequest BlockerRequest() {
    dma::AssessmentRequest request = ServeRequest(1);
    request.customer_id = "blocker";
    bool first = true;
    auto* self = this;
    request.stage_boundary_hook = [self, first](const char*) mutable {
      if (first) {
        first = false;
        self->started.set_value();
        self->release.wait();
      }
    };
    return request;
  }
};

TEST_F(ServeFixture, FullQueueShedsImmediatelyWithResourceExhausted) {
  serve::SnapshotRegistry registry(pipeline_a_);
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 2;
  serve::AssessmentService service(&registry, options);

  WorkerGate gate;
  StatusOr<std::future<serve::ServeResponse>> blocker =
      service.Submit(gate.BlockerRequest());
  ASSERT_TRUE(blocker.ok());
  gate.started.get_future().wait();  // Worker is wedged; queue is empty.

  std::vector<std::future<serve::ServeResponse>> admitted;
  for (std::uint64_t seed = 2; seed < 4; ++seed) {
    StatusOr<std::future<serve::ServeResponse>> submitted =
        service.Submit(ServeRequest(seed));
    ASSERT_TRUE(submitted.ok()) << "seed " << seed;
    admitted.push_back(std::move(*submitted));
  }
  // The queue now holds exactly queue_depth requests: everything further
  // is shed synchronously, nothing blocks, nothing queues.
  for (std::uint64_t seed = 4; seed < 7; ++seed) {
    StatusOr<std::future<serve::ServeResponse>> shed =
        service.Submit(ServeRequest(seed));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  }

  gate.release_promise.set_value();
  EXPECT_TRUE(blocker->get().status.ok());
  for (auto& future : admitted) EXPECT_TRUE(future.get().status.ok());

  const serve::AssessmentService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(ServeFixture, PressureShedsConfidenceStageFirst) {
  serve::SnapshotRegistry registry(pipeline_a_);
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 4;
  options.degrade_watermark = 0.5;  // Degrade once 2 of 4 slots are held.
  serve::AssessmentService service(&registry, options);

  WorkerGate gate;
  StatusOr<std::future<serve::ServeResponse>> blocker =
      service.Submit(gate.BlockerRequest());
  ASSERT_TRUE(blocker.ok());
  gate.started.get_future().wait();

  std::vector<std::future<serve::ServeResponse>> admitted;
  for (std::uint64_t seed = 2; seed < 5; ++seed) {
    dma::AssessmentRequest request = ServeRequest(seed);
    request.compute_confidence = true;
    StatusOr<std::future<serve::ServeResponse>> submitted =
        service.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    admitted.push_back(std::move(*submitted));
  }
  gate.release_promise.set_value();
  (void)blocker->get();

  // Queue depth at admission was 0, 1, 2 — only the third crossed the
  // watermark, so it alone lost its confidence stage.
  std::vector<serve::ServeResponse> responses;
  for (auto& future : admitted) responses.push_back(future.get());
  ASSERT_TRUE(responses[0].status.ok());
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_FALSE(responses[0].confidence_shed);
  EXPECT_TRUE(responses[0].outcome->confidence.has_value());
  EXPECT_TRUE(responses[2].confidence_shed);
  EXPECT_FALSE(responses[2].outcome->confidence.has_value());
  EXPECT_EQ(service.stats().degraded, 1u);
}

TEST_F(ServeFixture, ExpiredRequestsCountAsExpiredNotFailed) {
  serve::SnapshotRegistry registry(pipeline_a_);
  serve::AssessmentService service(&registry, serve::ServiceOptions{});
  dma::AssessmentRequest request = ServeRequest(6);
  request.deadline = Deadline::Expired();
  StatusOr<std::future<serve::ServeResponse>> submitted =
      service.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok());
  const serve::ServeResponse response = submitted->get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.completed_stages, 0u);
  EXPECT_FALSE(response.outcome.has_value());
  EXPECT_EQ(service.stats().expired, 1u);
  EXPECT_EQ(service.stats().failed, 0u);
}

// ----------------------------------------------------------- Hot swapping.

TEST_F(ServeFixture, SwapMidFlightKeepsInFlightRequestsOnPinnedEpoch) {
  const std::uint64_t seed = 8;
  const std::string reference_a = ReferenceRender(*pipeline_a_, seed);
  const std::string reference_b = ReferenceRender(*pipeline_b_, seed);
  // The two generations must genuinely disagree, or pinning would be
  // unobservable (epoch B uses a different catalog and cutoff).
  ASSERT_NE(reference_a, reference_b);

  serve::SnapshotRegistry registry(pipeline_a_);
  serve::ServiceOptions options;
  options.workers = 1;
  serve::AssessmentService service(&registry, options);

  // Wedge the request INSIDE the pipeline (past snapshot acquisition),
  // swap underneath it, then let it finish.
  std::promise<void> started;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  dma::AssessmentRequest request = ServeRequest(seed);
  bool first = true;
  request.stage_boundary_hook = [&started, release, first](
                                    const char*) mutable {
    if (first) {
      first = false;
      started.set_value();
      release.wait();
    }
  };
  StatusOr<std::future<serve::ServeResponse>> in_flight =
      service.Submit(std::move(request));
  ASSERT_TRUE(in_flight.ok());
  started.get_future().wait();

  EXPECT_EQ(registry.Swap(pipeline_b_), 2u);
  release_promise.set_value();

  const serve::ServeResponse pinned = in_flight->get();
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_EQ(pinned.snapshot_epoch, 1u);
  ASSERT_TRUE(pinned.outcome.has_value());
  EXPECT_EQ(Render(*pinned.outcome), reference_a);

  // A request admitted after the swap runs on the new generation.
  StatusOr<std::future<serve::ServeResponse>> fresh =
      service.Submit(ServeRequest(seed));
  ASSERT_TRUE(fresh.ok());
  const serve::ServeResponse swapped = fresh->get();
  ASSERT_TRUE(swapped.status.ok());
  EXPECT_EQ(swapped.snapshot_epoch, 2u);
  ASSERT_TRUE(swapped.outcome.has_value());
  EXPECT_EQ(Render(*swapped.outcome), reference_b);
}

// ------------------------------------------------------------------ Spool.

class SpoolDir {
 public:
  explicit SpoolDir(const std::string& name) {
    dir_ = std::filesystem::temp_directory_path() /
           ("doppler_serve_test_" + name + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~SpoolDir() { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& text) {
    const std::filesystem::path path = dir_ / name;
    EXPECT_TRUE(WriteTextFileAtomic(path.string(), text).ok());
    return path.string();
  }

  std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

constexpr char kGoodCsv[] =
    "t_seconds,cpu,memory,iops\n"
    "0,0.2,4.0,300\n600,0.5,4.5,800\n1200,0.9,5.0,2500\n"
    "1800,0.4,4.2,700\n2400,0.6,4.8,1200\n";

TEST(SpoolTest, ScanReturnsSortedCsvsOnceEach) {
  SpoolDir spool("scan");
  spool.Write("beta.csv", kGoodCsv);
  spool.Write("alpha.csv", kGoodCsv);
  spool.Write("notes.txt", "not a request");
  std::set<std::string> seen;
  StatusOr<std::vector<std::string>> first =
      serve::ScanSpool(spool.path(), &seen);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 2u);
  EXPECT_NE(first->at(0).find("alpha.csv"), std::string::npos);
  EXPECT_NE(first->at(1).find("beta.csv"), std::string::npos);
  // A second scan only surfaces files that appeared since.
  spool.Write("gamma.csv", kGoodCsv);
  StatusOr<std::vector<std::string>> second =
      serve::ScanSpool(spool.path(), &seen);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_NE(second->at(0).find("gamma.csv"), std::string::npos);
}

TEST_F(ServeFixture, DrainSpoolFoldsBadFilesIntoErrorSlots) {
  SpoolDir spool("drain");
  spool.Write("bad.csv", "no header row here\n");
  spool.Write("good.csv", kGoodCsv);

  serve::SnapshotRegistry registry(pipeline_a_);
  serve::AssessmentService service(&registry, serve::ServiceOptions{});
  serve::SpoolOptions options;
  options.dir = spool.path();
  StatusOr<std::vector<std::string>> paths =
      serve::ScanSpool(spool.path(), nullptr);
  ASSERT_TRUE(paths.ok());
  const serve::SpoolReport report =
      serve::DrainSpool(service, *paths, options);
  ASSERT_EQ(report.responses.size(), 2u);
  EXPECT_EQ(report.failures, 1u);
  // File order is preserved: the bad file's slot carries its terminal
  // ingest status, the good one a full assessment.
  EXPECT_EQ(report.responses[0].customer_id, "bad.csv");
  EXPECT_FALSE(report.responses[0].status.ok());
  EXPECT_NE(report.responses[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(report.responses[1].customer_id, "good.csv");
  EXPECT_TRUE(report.responses[1].status.ok());
  EXPECT_EQ(report.responses[1].completed_stages, dma::kAllStages);

  const std::string json =
      serve::RenderSpoolReportJson(report, service.stats());
  EXPECT_NE(json.find("\"customer_id\":\"bad.csv\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"OK\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\":"), std::string::npos);
}

TEST_F(ServeFixture, IngestRetriesInjectedTransientFaults) {
  SpoolDir spool("retry");
  const std::string path = spool.Write("cust.csv", kGoodCsv);

  const sim::TransientIoPlan plan(29, 1.0, 2);
  const int injected = plan.FailuresFor(path);
  ASSERT_GE(injected, 1);

  serve::SnapshotRegistry registry(pipeline_a_);
  serve::AssessmentService service(&registry, serve::ServiceOptions{});
  serve::SpoolOptions options;
  options.dir = spool.path();
  options.backoff.initial_delay_seconds = 0.001;
  options.backoff.max_delay_seconds = 0.002;
  options.backoff.max_attempts = 4;
  std::atomic<int> attempts{0};
  const auto hook = plan.Hook();
  options.io_fault_hook = [&attempts, hook](const std::string& key,
                                            int attempt) {
    attempts.fetch_add(1);
    return hook(key, attempt);
  };
  const serve::SpoolReport report = serve::DrainSpool(service, {path}, options);
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_TRUE(report.responses[0].status.ok());
  EXPECT_EQ(attempts.load(), injected + 1);
}

TEST_F(ServeFixture, IngestRetryGivesUpAtDeadline) {
  SpoolDir spool("retry_deadline");
  const std::string path = spool.Write("cust.csv", kGoodCsv);

  serve::SnapshotRegistry registry(pipeline_a_);
  serve::AssessmentService service(&registry, serve::ServiceOptions{});
  serve::SpoolOptions options;
  options.dir = spool.path();
  options.deadline_seconds = 0.050;
  options.backoff.initial_delay_seconds = 30.0;  // Never fits the budget.
  options.backoff.max_delay_seconds = 30.0;
  options.io_fault_hook = [](const std::string&, int) {
    return UnavailableError("always mid-write");
  };
  const auto start = std::chrono::steady_clock::now();
  const serve::SpoolReport report = serve::DrainSpool(service, {path}, options);
  const double elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 5.0);
}

// ------------------------------------------------------------------- Soak.

// The deterministic overload soak (tools/check.sh --soak runs this suite
// under TSan): after one pre-expired request on the idle service, three
// submitter threads race 36 requests — a third of them pre-expired —
// against a 2-worker service with a shallow queue while a fourth thread
// keeps swapping snapshots. Assertions:
//   - every Submit either sheds with kResourceExhausted or yields a future
//     that resolves to a terminal status (no hangs, no lost requests);
//   - completed requests are byte-identical to a single-threaded run
//     against the generation their epoch pins;
//   - the admission accounting identity holds exactly.
TEST_F(ServeFixture, SoakOverloadEveryRequestReachesTerminalStatus) {
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 12;
  constexpr std::uint64_t kSeeds = 4;  // Request seeds cycle 0..3.

  // Single-threaded references for both generations, per seed.
  std::vector<std::string> reference_a;
  std::vector<std::string> reference_b;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    reference_a.push_back(ReferenceRender(*pipeline_a_, seed));
    reference_b.push_back(ReferenceRender(*pipeline_b_, seed));
  }

  serve::SnapshotRegistry registry(pipeline_a_);
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_depth = 4;
  // Journal every terminal fate; default capacities exceed the soak's 37
  // requests, so the retained records are the complete population and the
  // journal accounting below is exact, not sampled.
  obs::FlightRecorder recorder;
  options.flight_recorder = &recorder;
  serve::AssessmentService service(&registry, options);

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::future<serve::ServeResponse>>>
      futures;  // (seed, future)
  std::atomic<std::uint64_t> shed{0};

  // One pre-expired request on the idle service: the queue has room, so it
  // is admitted and must expire, however the submitters below are
  // scheduled.
  {
    dma::AssessmentRequest request = ServeRequest(0);
    request.deadline = Deadline::Expired();
    StatusOr<std::future<serve::ServeResponse>> submitted =
        service.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.emplace_back(0, std::move(*submitted));
  }

  std::atomic<bool> stop_swapping{false};
  // Epoch parity encodes the generation: odd = A (epoch 1 is the initial
  // A), even = B — the alternating swaps below preserve that invariant.
  std::thread swapper([&] {
    bool to_b = true;
    while (!stop_swapping.load()) {
      registry.Swap(to_b ? pipeline_b_ : pipeline_a_);
      to_b = !to_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(t * kPerSubmitter + i) % kSeeds;
        dma::AssessmentRequest request = ServeRequest(seed);
        if (i % 3 == 2) request.deadline = Deadline::Expired();
        StatusOr<std::future<serve::ServeResponse>> submitted =
            service.Submit(std::move(request));
        if (!submitted.ok()) {
          EXPECT_EQ(submitted.status().code(),
                    StatusCode::kResourceExhausted);
          shed.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        futures.emplace_back(seed, std::move(*submitted));
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();

  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  for (auto& [seed, future] : futures) {
    const serve::ServeResponse response = future.get();
    if (response.status.ok()) {
      ++completed;
      EXPECT_EQ(response.completed_stages, dma::kAllStages);
      ASSERT_TRUE(response.outcome.has_value());
      // Byte-identity against the pinned generation.
      const std::string& reference = (response.snapshot_epoch % 2 == 1)
                                         ? reference_a[seed]
                                         : reference_b[seed];
      EXPECT_EQ(Render(*response.outcome), reference)
          << "seed " << seed << " epoch " << response.snapshot_epoch;
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
      ++expired;
      EXPECT_EQ(response.completed_stages, 0u);
    }
  }
  stop_swapping.store(true);
  swapper.join();

  const serve::AssessmentService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter + 1));
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.admitted, stats.submitted - stats.shed);
  EXPECT_EQ(stats.admitted, futures.size());
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.admitted, completed + expired);
  // At least the request submitted to the idle service hit the deadline
  // path.
  EXPECT_GT(expired, 0u);

  // Journal accounting matches the admission identity exactly: one record
  // per submitted request, causes mirroring the terminal counters.
  EXPECT_EQ(recorder.TotalRecorded(), stats.submitted);
  const auto causes = recorder.CauseTotals();
  const auto cause_count = [&causes](obs::FlightCause cause) {
    const auto it = causes.find(cause);
    return it == causes.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(cause_count(obs::FlightCause::kShed), stats.shed);
  EXPECT_EQ(cause_count(obs::FlightCause::kCompleted), stats.completed);
  EXPECT_EQ(cause_count(obs::FlightCause::kExpired), stats.expired);
  EXPECT_EQ(cause_count(obs::FlightCause::kFailed), stats.failed);

  // The retained records ARE the population (capacity > traffic), so the
  // per-status census equals the counters too.
  const std::vector<obs::FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), stats.submitted);
  std::uint64_t journal_ok = 0;
  std::uint64_t journal_expired = 0;
  std::uint64_t journal_shed = 0;
  for (const obs::FlightRecord& record : records) {
    switch (record.status) {
      case StatusCode::kOk:
        ++journal_ok;
        // Completed requests journal their pinned epoch and stage times.
        EXPECT_GE(record.snapshot_epoch, 1u);
        EXPECT_FALSE(record.stage_timings.empty());
        break;
      case StatusCode::kDeadlineExceeded:
        ++journal_expired;
        break;
      case StatusCode::kResourceExhausted:
        ++journal_shed;
        break;
      default:
        ADD_FAILURE() << "unexpected journal status "
                      << StatusCodeToString(record.status);
    }
  }
  EXPECT_EQ(journal_ok, stats.completed);
  EXPECT_EQ(journal_expired, stats.expired);
  EXPECT_EQ(journal_shed, stats.shed);
}

// Recording is observability, not behaviour: the same request renders a
// byte-identical report with the flight recorder attached and without.
TEST_F(ServeFixture, RecorderOnOffReportsAreByteIdentical) {
  serve::SnapshotRegistry registry(pipeline_a_);
  std::vector<std::string> rendered;
  for (const bool with_recorder : {false, true}) {
    obs::FlightRecorder recorder;
    serve::ServiceOptions options;
    options.workers = 1;
    if (with_recorder) options.flight_recorder = &recorder;
    serve::AssessmentService service(&registry, options);
    StatusOr<std::future<serve::ServeResponse>> submitted =
        service.Submit(ServeRequest(/*seed=*/1));
    ASSERT_TRUE(submitted.ok());
    const serve::ServeResponse response = submitted->get();
    ASSERT_TRUE(response.status.ok());
    ASSERT_TRUE(response.outcome.has_value());
    rendered.push_back(Render(*response.outcome));
    if (with_recorder) {
      EXPECT_EQ(recorder.TotalRecorded(), 1u);
    }
  }
  EXPECT_EQ(rendered[0], rendered[1]);
}

}  // namespace
}  // namespace doppler
