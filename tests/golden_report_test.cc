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
// rewrites examples/golden/*.json (and monitor_drift.jsonl,
// cli_default.jsonl, cli_batch.txt) and the shipped group-model table
// src/dma/shipped_models.inc in the source tree; review the diff like any
// other code change. A new table takes effect only after a rebuild, so
// after regenerating it, rebuild and run the update once more to render
// cli_default.jsonl from it.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitwise_model.h"
#include "private_temp_dir.h"
#include "catalog/catalog.h"
#include "core/throttling.h"
#include "dma/cli.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "dma/shipped_models.h"
#include "obs/trace.h"
#include "quality/quality_gate.h"
#include "stream/monitor.h"
#include "util/string_util.h"
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

// The path DMA actually runs: `doppler assess` without --profiles, so the
// CLI resolves its own group model, for the single-target DB and MI
// reports and the cross-target comparison. Every canonical trace is
// assessed in-process through CliMain. Wall-clock "seconds" are zeroed and
// the source-tree prefix is dropped from customer ids, so the lines are the
// same run to run and checkout to checkout.
TEST_F(GoldenReportTest, CliDefaultPathMatchesGolden) {
  std::vector<std::string> traces;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(DOPPLER_SOURCE_DIR) + "/examples/traces")) {
    if (entry.path().extension() == ".csv") {
      traces.push_back(entry.path().string());
    }
  }
  std::sort(traces.begin(), traces.end());
  ASSERT_FALSE(traces.empty());
  const std::vector<std::vector<std::string>> variants = {
      {"--json", "--confidence"},
      {"--target", "mi", "--json"},
      {"--targets", "azure-db,aws-rds", "--json"}};
  const std::regex seconds("\"seconds\":[-+.0-9eE]+");
  const std::string source_prefix =
      "\"customer_id\":\"" + std::string(DOPPLER_SOURCE_DIR) + "/";
  std::string rendered;
  for (const std::string& trace : traces) {
    for (const std::vector<std::string>& flags : variants) {
      std::vector<std::string> args = {"assess", "--trace", trace};
      args.insert(args.end(), flags.begin(), flags.end());
      std::ostringstream out;
      ASSERT_EQ(dma::CliMain(args, out), 0) << out.str();
      std::string line =
          std::regex_replace(out.str(), seconds, "\"seconds\":0");
      for (std::size_t at = line.find(source_prefix); at != std::string::npos;
           at = line.find(source_prefix, at)) {
        line.replace(at, source_prefix.size(), "\"customer_id\":\"");
      }
      rendered += line;
    }
  }
  CompareWithGolden("cli_default.jsonl", rendered);
}

// `line` with its comma-separated cell `column` replaced by `cell`.
std::string WithCell(const std::string& line, std::size_t column,
                     const std::string& cell) {
  std::vector<std::string> cells = Split(line, ',');
  cells.at(column) = cell;
  return Join(cells, ",");
}

// The batch path DMA runs over an estate: `doppler assess-batch` over a
// directory of clean, repairable and unusable traces. The JSON report, at
// every job count and as written by --out, followed by the text report,
// must equal the golden byte for byte; the failed slots make every run
// exit 1.
TEST_F(GoldenReportTest, AssessBatchMatchesGoldenAtEveryJobCount) {
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string traces = dir.path() + "/traces";
  ASSERT_TRUE(std::filesystem::create_directory(traces));
  for (const char* name : {"bursty_dw", "spiky_batch", "steady_oltp"}) {
    std::filesystem::copy_file(TracePath(name),
                               traces + "/" + name + ".csv");
  }
  // steady_oltp with a duplicated row, a nan cell, a negative cell and two
  // swapped rows: the repair gate fixes every one.
  StatusOr<std::string> steady = ReadFile(TracePath("steady_oltp"));
  ASSERT_TRUE(steady.ok()) << steady.status().ToString();
  // Header, 288 rows, and the empty field after the final newline.
  std::vector<std::string> dirty = Split(*steady, '\n');
  ASSERT_EQ(dirty.size(), 290u);
  dirty[20] = WithCell(dirty[20], 1, "nan");
  dirty[30] = WithCell(dirty[30], 3, "-5.0000");
  std::swap(dirty[40], dirty[41]);
  dirty.insert(dirty.begin() + 11, dirty[10]);
  ASSERT_TRUE(
      WriteFile(traces + "/steady_oltp_dirty.csv", Join(dirty, "\n")).ok());
  // No t_seconds column, and a 60-slot collector gap: both fail their slot.
  ASSERT_TRUE(WriteFile(traces + "/broken.csv", "bogus,columns\n1,2\n").ok());
  StatusOr<std::string> spiky = ReadFile(TracePath("spiky_batch"));
  ASSERT_TRUE(spiky.ok()) << spiky.status().ToString();
  std::vector<std::string> gap = Split(*spiky, '\n');
  gap.erase(gap.begin() + 100, gap.begin() + 160);
  ASSERT_TRUE(WriteFile(traces + "/gap.csv", Join(gap, "\n")).ok());

  const auto batch = [&traces](const std::vector<std::string>& flags) {
    std::vector<std::string> args = {"assess-batch", "--traces", traces};
    args.insert(args.end(), flags.begin(), flags.end());
    std::ostringstream out;
    EXPECT_EQ(dma::CliMain(args, out), 1) << out.str();
    return out.str();
  };
  const std::string text = batch({"--jobs", "2"});
  std::vector<std::pair<std::string, std::string>> reports;
  for (const char* jobs : {"1", "2", "3", "8"}) {
    reports.emplace_back(std::string("--json --jobs ") + jobs,
                         batch({"--json", "--jobs", jobs}));
  }
  const std::string out_path = dir.path() + "/report.json";
  EXPECT_NE(batch({"--json", "--jobs", "3", "--out", out_path})
                .find("wrote batch report for 6 traces"),
            std::string::npos);
  StatusOr<std::string> written = ReadFile(out_path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  reports.emplace_back("--json --jobs 3 --out", *written);

  if (UpdateMode()) {
    CompareWithGolden("cli_batch.txt", reports.front().second + text);
    return;
  }
  StatusOr<std::string> golden = ReadFile(GoldenPath("cli_batch.txt"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  for (const auto& [label, report] : reports) {
    EXPECT_EQ(report + text, *golden) << label;
  }
}

// The exact C++ literal of `value`, e.g. 0x1.8p-4.
std::string HexFloat(double value) {
  char digits[32];
  const std::to_chars_result result =
      std::to_chars(digits, digits + sizeof(digits), std::fabs(value),
                    std::chars_format::hex);
  return (std::signbit(value) ? "-0x" : "0x") +
         std::string(digits, result.ptr);
}

// One row of src/dma/shipped_models.inc (see ShippedRow there).
std::string ShippedRowLiteral(const std::string& target_id,
                              Deployment deployment, int group_id, int count,
                              double mean, double std_dev) {
  return "{\"" + target_id + "\", catalog::Deployment::" +
         (deployment == Deployment::kSqlDb ? "kSqlDb" : "kSqlMi") + ", " +
         std::to_string(group_id) + ", " + std::to_string(count) + ", " +
         HexFloat(mean) + ", " + HexFloat(std_dev) + "},\n";
}

// The number of buffered spans named `name`.
std::size_t SpanCount(const std::string& name) {
  std::size_t count = 0;
  for (const obs::SpanRecord& span : obs::SnapshotSpans()) {
    count += span.name == name;
  }
  return count;
}

// The group models the library ships as compiled constants must be
// bit-identical to a fresh offline fit on the default training fleet, and
// must answer without fitting. DOPPLER_UPDATE_GOLDEN=1 rewrites the table
// from the fit; rebuild afterwards.
TEST(ShippedModelTest, ShippedModelsAreBitIdenticalToARefit) {
  const std::pair<const char*, Deployment> kShipped[] = {
      {"azure-db", Deployment::kSqlDb},
      {"azure-db", Deployment::kSqlMi},
      {"aws-rds", Deployment::kSqlDb}};
  std::string table =
      "// Generated by golden_report_test under DOPPLER_UPDATE_GOLDEN=1 from\n"
      "// FitGroupModelOffline(spec.build_catalog(), DefaultPricing,\n"
      "// NonParametricEstimator, deployment, " +
      std::to_string(dma::kDefaultTrainingCustomers) + ", " +
      std::to_string(dma::kDefaultTrainingSeed) +
      "). Do not edit.\n"
      "// {target id, deployment, group id (-1: global mean), count,\n"
      "//  mean probability, std probability}\n";
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  for (const auto& [id, deployment] : kShipped) {
    SCOPED_TRACE(std::string(id) + " " + catalog::DeploymentName(deployment));
    const catalog::TargetSpec* spec =
        catalog::TargetRegistry::BuiltIns().Find(id);
    ASSERT_NE(spec, nullptr);
    StatusOr<core::GroupModel> refit = dma::FitGroupModelOffline(
        spec->build_catalog(), pricing, estimator, deployment,
        dma::kDefaultTrainingCustomers, dma::kDefaultTrainingSeed);
    ASSERT_TRUE(refit.ok()) << refit.status().ToString();
    table += ShippedRowLiteral(id, deployment, -1, 0, refit->global_mean(),
                               0.0);
    for (const core::GroupStats& group : refit->AllGroups()) {
      table += ShippedRowLiteral(id, deployment, group.group_id, group.count,
                                 group.mean_probability,
                                 group.std_probability);
    }
    if (UpdateMode()) continue;

    obs::SetTracingEnabled(true);
    obs::ClearTraceBuffer();
    StatusOr<core::GroupModel> shipped =
        dma::DefaultGroupModel(*spec, deployment);
    obs::SetTracingEnabled(false);
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    EXPECT_EQ(SpanCount("dma.model_load"), 1u);
    EXPECT_EQ(SpanCount("dma.model_fit"), 0u);
    ExpectBitIdentical(*shipped, *refit);
  }
  if (UpdateMode()) {
    const Status written = WriteFile(
        std::string(DOPPLER_SOURCE_DIR) + "/src/dma/shipped_models.inc",
        table);
    ASSERT_TRUE(written.ok()) << written.ToString();
    GTEST_SKIP() << "shipped_models.inc regenerated; rebuild to use it";
  }
}

// Only the registry's own entries answer from the table: a copy of a
// built-in spec could build any catalog, so it is fitted.
TEST(ShippedModelTest, CopiesOfBuiltInSpecsAreFitted) {
  const catalog::TargetSpec copy =
      *catalog::TargetRegistry::BuiltIns().Find("azure-db");
  obs::SetTracingEnabled(true);
  obs::ClearTraceBuffer();
  StatusOr<core::GroupModel> model =
      dma::DefaultGroupModel(copy, Deployment::kSqlDb);
  obs::SetTracingEnabled(false);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(SpanCount("dma.model_fit"), 1u);
  EXPECT_EQ(SpanCount("dma.model_load"), 0u);
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
