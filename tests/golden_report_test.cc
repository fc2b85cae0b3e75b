// Golden-report regression tests: the canonical traces under examples/
// are assessed through the full pipeline and the deterministic JSON report
// (stage seconds excluded) must match the committed goldens byte for byte.
// Any engine change that moves a recommendation, a probability, a quality
// finding or even a JSON key now fails loudly here instead of shipping
// silently.
//
// Refreshing after an INTENDED change:
//
//   DOPPLER_UPDATE_GOLDEN=1 ./golden_report_test
//
// rewrites examples/golden/*.json (and monitor_drift.jsonl) in the source
// tree; review the diff like any other code change.

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "quality/quality_gate.h"
#include "stream/monitor.h"
#include "workload/generator.h"

#ifndef DOPPLER_SOURCE_DIR
#error "golden_report_test requires the DOPPLER_SOURCE_DIR definition"
#endif

namespace doppler {
namespace {

using catalog::Deployment;

std::string TracePath(const std::string& name) {
  return std::string(DOPPLER_SOURCE_DIR) + "/examples/traces/" + name +
         ".csv";
}

std::string GoldenPath(const std::string& file) {
  return std::string(DOPPLER_SOURCE_DIR) + "/examples/golden/" + file;
}

bool UpdateMode() {
  const char* env = std::getenv("DOPPLER_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return UnavailableError("cannot write " + path);
  out << content;
  return OkStatus();
}

class GoldenReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    // Same fixed seed every run: the group model is part of the golden.
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb,
        /*num_customers=*/30, /*seed=*/7);
    ASSERT_TRUE(model.ok());
    dma::SkuRecommendationPipeline::Config config;
    // Deliberately parallel: the goldens double as a determinism check —
    // they were produced at some thread count and must reproduce at this
    // one.
    config.num_threads = 2;
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(
            {std::move(catalog), *std::move(model)}, config);
    ASSERT_TRUE(pipeline.ok());
    pipeline_ =
        new dma::SkuRecommendationPipeline(*std::move(pipeline));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  // Assesses one canonical trace exactly the way the CLI does (gated
  // ingestion, repair policy) and renders the deterministic report.
  static StatusOr<std::string> RenderCanonical(const std::string& name,
                                               Deployment target,
                                               bool confidence) {
    quality::GateOptions gate;
    DOPPLER_ASSIGN_OR_RETURN(
        quality::GatedTrace gated,
        quality::ReadTraceFileGated(TracePath(name), gate));
    dma::AssessmentRequest request;
    request.customer_id = name + ".csv";
    request.target = target;
    request.database_traces = {std::move(gated.trace)};
    request.ingest_quality = std::move(gated.report);
    request.compute_confidence = confidence;
    DOPPLER_ASSIGN_OR_RETURN(dma::AssessmentOutcome outcome,
                             pipeline_->Assess(request));
    dma::AssessmentJsonOptions options;
    options.include_stage_seconds = false;
    return dma::RenderAssessmentJson(outcome, options) + "\n";
  }

  static void CheckGolden(const std::string& golden_name,
                          const std::string& trace_name, Deployment target,
                          bool confidence = false) {
    StatusOr<std::string> rendered =
        RenderCanonical(trace_name, target, confidence);
    ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
    CompareWithGolden(golden_name + ".json", *rendered);
  }

  // Compares `rendered` with the committed golden file, or rewrites the
  // file in update mode.
  static void CompareWithGolden(const std::string& file,
                                const std::string& rendered) {
    if (UpdateMode()) {
      const Status written = WriteFile(GoldenPath(file), rendered);
      ASSERT_TRUE(written.ok()) << written.ToString();
      GTEST_SKIP() << "golden " << file << " regenerated";
    }
    StatusOr<std::string> golden = ReadFile(GoldenPath(file));
    ASSERT_TRUE(golden.ok())
        << golden.status().ToString()
        << " (run with DOPPLER_UPDATE_GOLDEN=1 to generate)";
    EXPECT_EQ(rendered, *golden)
        << "output drifted from golden '" << file
        << "'; if intended, regenerate with DOPPLER_UPDATE_GOLDEN=1 and "
        << "review the diff";
  }

  static dma::SkuRecommendationPipeline* pipeline_;
};

dma::SkuRecommendationPipeline* GoldenReportTest::pipeline_ = nullptr;

TEST_F(GoldenReportTest, SteadyOltpDb) {
  CheckGolden("steady_oltp_db", "steady_oltp", Deployment::kSqlDb,
              /*confidence=*/true);
}

TEST_F(GoldenReportTest, SpikyBatchDb) {
  CheckGolden("spiky_batch_db", "spiky_batch", Deployment::kSqlDb);
}

TEST_F(GoldenReportTest, SpikyBatchMi) {
  CheckGolden("spiky_batch_mi", "spiky_batch", Deployment::kSqlMi);
}

TEST_F(GoldenReportTest, BurstyDwDb) {
  CheckGolden("bursty_dw_db", "bursty_dw", Deployment::kSqlDb);
}

// The streaming monitor's per-batch events, pinned byte for byte. Each
// canonical trace is one customer's stream: its two days are replayed twice
// as day batches (four days), interleaved across customers by day, into a
// two-day window, so every customer evicts and re-checks drift. The
// customer "shifted" replays steady_oltp with CPU x2.5 from day three on,
// which must trip drift and re-assess; the replayed days of the others move
// no window mean past the default tolerance.
TEST_F(GoldenReportTest, MonitorDriftEventsMatchGolden) {
  struct Stream {
    std::string customer;
    std::string trace_name;
    bool shifted;
  };
  const Stream streams[] = {{"bursty_dw", "bursty_dw", false},
                            {"shifted", "steady_oltp", true},
                            {"spiky_batch", "spiky_batch", false},
                            {"steady_oltp", "steady_oltp", false}};
  constexpr std::size_t kDayRows = telemetry::kSamplesPerDay;
  constexpr std::size_t kDays = 4;

  std::vector<telemetry::PerfTrace> traces;
  for (const Stream& stream : streams) {
    StatusOr<quality::GatedTrace> gated = quality::ReadTraceFileGated(
        TracePath(stream.trace_name), quality::GateOptions());
    ASSERT_TRUE(gated.ok()) << gated.status().ToString();
    ASSERT_EQ(gated->trace.num_samples(), 2 * kDayRows);
    traces.push_back(std::move(gated->trace));
  }

  stream::MonitorOptions options;
  options.window_rows = 2 * kDayRows;
  stream::StreamMonitor monitor(pipeline_, options);
  std::string rendered;
  for (std::size_t day = 0; day < kDays; ++day) {
    for (std::size_t i = 0; i < std::size(streams); ++i) {
      telemetry::PerfTrace batch =
          traces[i].Window((day % 2) * kDayRows, kDayRows);
      if (streams[i].shifted && day >= 2) {
        ASSERT_TRUE(workload::RampDimension(&batch, catalog::ResourceDim::kCpu,
                                            0, 2.5)
                        .ok());
      }
      StatusOr<stream::MonitorEvent> event =
          monitor.Ingest(streams[i].customer, batch);
      ASSERT_TRUE(event.ok()) << event.status().ToString();
      rendered += stream::RenderMonitorEventJson(*event) + "\n";
    }
  }
  CompareWithGolden("monitor_drift.jsonl", rendered);
}

// The report must not depend on which identically-configured pipeline
// produced it — goldens survive process restarts and pipeline rebuilds.
TEST_F(GoldenReportTest, ReportIsStableAcrossRenderings) {
  StatusOr<std::string> first =
      RenderCanonical("steady_oltp", Deployment::kSqlDb, false);
  StatusOr<std::string> second =
      RenderCanonical("steady_oltp", Deployment::kSqlDb, false);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

}  // namespace
}  // namespace doppler
