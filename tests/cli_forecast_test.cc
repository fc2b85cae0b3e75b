// Tests for the capacity-forecast module and the command-line front-end.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitwise_model.h"
#include "private_temp_dir.h"
#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "core/forecast.h"
#include "dma/cli.h"
#include "dma/shipped_models.h"
#include "dma/static_inputs.h"
#include "telemetry/trace_io.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/generator.h"

namespace doppler {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;

// ---------------------------------------------------------- Forecast.

TEST(ForecastTest, LinearSlopeExact) {
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({1, 3, 5, 7}), 2.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({9, 6, 3}), -3.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({1}), 0.0);
  EXPECT_DOUBLE_EQ(core::LinearSlopePerSample({}), 0.0);
}

telemetry::PerfTrace GrowingTrace(double growth_per_window,
                                  std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = "growing";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::Trending(1.2, growth_per_window, 0.02);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::Trending(400.0, growth_per_window * 320.0,
                                        0.02);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 14.0, &rng);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

class ForecastFixture : public ::testing::Test {
 protected:
  ForecastFixture()
      : compiled_(catalog::CompiledCatalog::Compile(
            catalog::BuildAzureLikeCatalog(), &pricing_)),
        candidates_(compiled_.ForDeployment(Deployment::kSqlDb).view()) {}

  catalog::DefaultPricing pricing_;
  catalog::CompiledCatalog compiled_;
  catalog::CompiledView candidates_;
  core::NonParametricEstimator estimator_;
};

TEST_F(ForecastFixture, GrowingWorkloadOutgrowsItsSku) {
  const telemetry::PerfTrace trace = GrowingTrace(1.0, 1);
  core::ForecastOptions options;
  options.horizon_months = 12;
  StatusOr<core::GrowthForecast> forecast = core::ForecastUpgrades(
      trace, candidates_, pricing_, estimator_, "DB_GP_Gen5_2", options);
  ASSERT_TRUE(forecast.ok());
  ASSERT_EQ(forecast->timeline.size(), 12u);
  // Fitted growth is positive and roughly 1 core per 14-day window ->
  // ~2.1/month.
  EXPECT_GT(forecast->monthly_growth.Get(ResourceDim::kCpu), 1.0);
  // The 2-core SKU is outgrown within the year...
  EXPECT_GT(forecast->upgrade_due_month, 0);
  EXPECT_LE(forecast->upgrade_due_month, 12);
  // ...and its throttling probability is non-decreasing along the horizon.
  for (std::size_t i = 1; i < forecast->timeline.size(); ++i) {
    EXPECT_GE(forecast->timeline[i].current_sku_probability,
              forecast->timeline[i - 1].current_sku_probability - 1e-9);
  }
  // Recommended SKUs never get cheaper as demand grows.
  for (std::size_t i = 1; i < forecast->timeline.size(); ++i) {
    EXPECT_GE(forecast->timeline[i].recommended_monthly_cost,
              forecast->timeline[i - 1].recommended_monthly_cost - 1e-9);
  }
}

TEST_F(ForecastFixture, SteadyWorkloadNeverUpgrades) {
  Rng rng(2);
  workload::WorkloadSpec spec;
  spec.name = "steady";
  spec.dims[ResourceDim::kCpu] = workload::DimensionSpec::Steady(0.8, 0.02);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.02);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 14.0, &rng);
  ASSERT_TRUE(trace.ok());
  StatusOr<core::GrowthForecast> forecast = core::ForecastUpgrades(
      *trace, candidates_, pricing_, estimator_, "DB_GP_Gen5_2");
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->upgrade_due_month, 0);
  EXPECT_NEAR(forecast->monthly_growth.Get(ResourceDim::kCpu), 0.0, 0.1);
}

TEST_F(ForecastFixture, SteeperGrowthUpgradesSooner) {
  StatusOr<core::GrowthForecast> slow = core::ForecastUpgrades(
      GrowingTrace(0.6, 3), candidates_, pricing_, estimator_,
      "DB_GP_Gen5_2");
  StatusOr<core::GrowthForecast> fast = core::ForecastUpgrades(
      GrowingTrace(3.0, 3), candidates_, pricing_, estimator_,
      "DB_GP_Gen5_2");
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_GT(fast->upgrade_due_month, 0);
  if (slow->upgrade_due_month > 0) {
    EXPECT_LE(fast->upgrade_due_month, slow->upgrade_due_month);
  }
}

TEST_F(ForecastFixture, LatencyFrozenByDefault) {
  const telemetry::PerfTrace trace = GrowingTrace(1.0, 4);
  StatusOr<core::GrowthForecast> forecast = core::ForecastUpgrades(
      trace, candidates_, pricing_, estimator_, "");
  ASSERT_TRUE(forecast.ok());
  EXPECT_DOUBLE_EQ(
      forecast->monthly_growth.Get(ResourceDim::kIoLatencyMs), 0.0);
}

TEST_F(ForecastFixture, ValidatesInputs) {
  const telemetry::PerfTrace trace = GrowingTrace(1.0, 5);
  core::ForecastOptions bad_horizon;
  bad_horizon.horizon_months = 0;
  EXPECT_FALSE(core::ForecastUpgrades(trace, candidates_, pricing_,
                                      estimator_, "", bad_horizon)
                   .ok());
  EXPECT_FALSE(core::ForecastUpgrades(telemetry::PerfTrace(), candidates_,
                                      pricing_, estimator_, "")
                   .ok());
  EXPECT_FALSE(
      core::ForecastUpgrades(trace, {}, pricing_, estimator_, "").ok());
  // Unknown current SKU surfaces as an error, not silence.
  EXPECT_FALSE(core::ForecastUpgrades(trace, candidates_, pricing_,
                                      estimator_, "NOPE")
                   .ok());
}

// --------------------------------------------------------------- CLI.

TEST(CliParseTest, CommandAndFlags) {
  StatusOr<dma::CliOptions> options = dma::ParseCliArgs(
      {"assess", "--trace", "t.csv", "--confidence", "--target", "mi"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "assess");
  EXPECT_EQ(options->Get("trace"), "t.csv");
  EXPECT_EQ(options->Get("target"), "mi");
  EXPECT_TRUE(options->Has("confidence"));
  EXPECT_FALSE(options->Has("profiles"));
  EXPECT_EQ(options->Get("missing", "fallback"), "fallback");
}

TEST(CliParseTest, RejectsMalformedArgs) {
  EXPECT_FALSE(dma::ParseCliArgs({}).ok());
  EXPECT_FALSE(dma::ParseCliArgs({"assess", "stray"}).ok());
  EXPECT_FALSE(dma::ParseCliArgs({"assess", "--"}).ok());
}

TEST(CliRunTest, HelpAndUnknownCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"help"}, out), 0);
  EXPECT_NE(out.str().find("Commands:"), std::string::npos);
  std::ostringstream err;
  EXPECT_EQ(dma::CliMain({"frobnicate"}, err), 3);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
  std::ostringstream usage;
  EXPECT_EQ(dma::CliMain({"assess", "stray"}, usage), 2);
}

// Each case below used to exit 0 and silently do nothing.

TEST(CliRunTest, MonitorRejectsNonFiniteDriftTolerance) {
  const PrivateTempDir spool;
  ASSERT_FALSE(spool.path().empty());
  for (const char* tolerance : {"nan", "inf"}) {
    std::ostringstream out;
    EXPECT_EQ(dma::CliMain({"monitor", "--spool", spool.path(),
                            "--drift-tolerance", tolerance},
                           out),
              3)
        << tolerance;  // kInvalidArgument
    EXPECT_NE(out.str().find("--drift-tolerance"), std::string::npos)
        << out.str();
  }
}

TEST(CliRunTest, MonitorRejectsWindowShorterThanAssessThreshold) {
  // The default --min-assess-rows (288) can never fit a 100-row window.
  const PrivateTempDir spool;
  ASSERT_FALSE(spool.path().empty());
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"monitor", "--spool", spool.path(),
                          "--window-rows", "100"},
                         out),
            3);
  EXPECT_NE(out.str().find("--min-assess-rows (288) exceeds --window-rows "
                           "(100)"),
            std::string::npos)
      << out.str();
}

// A flag the command does not read is a usage error (exit 2) that names
// the flag.
void ExpectUnknownFlag(const std::vector<std::string>& args,
                       const std::string& flag) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain(args, out), 2) << out.str();
  EXPECT_NE(out.str().find("unknown flag --" + flag), std::string::npos)
      << out.str();
}

TEST(CliRunTest, RejectsUnknownFlag) {
  const PrivateTempDir spool;
  ASSERT_FALSE(spool.path().empty());
  ExpectUnknownFlag({"monitor", "--spool", spool.path(), "--bogus-flag", "3"},
                    "bogus-flag");
  // Global flags stay accepted by every command.
  EXPECT_TRUE(dma::ParseCliArgs({"monitor", "--spool", "d", "--log-level",
                                 "error", "--log-json", "--metrics-out", "m",
                                 "--trace-out", "t"})
                  .ok());
}

TEST(CliRunTest, RejectsRetiredSketchBudgetFlag) {
  const PrivateTempDir spool;
  ASSERT_FALSE(spool.path().empty());
  ExpectUnknownFlag({"monitor", "--spool", spool.path(), "--sketch-budget",
                     "10"},
                    "sketch-budget");
}

TEST(CliRunTest, RejectsMisspelledFlag) {
  const PrivateTempDir traces;
  ASSERT_FALSE(traces.path().empty());
  ExpectUnknownFlag({"assess-batch", "--traces", traces.path(), "--jbos", "4"},
                    "jbos");
}

// A two-day CPU + IOPS trace written to `path`.
void WriteSmallTrace(const std::string& path) {
  Rng rng(5);
  workload::WorkloadSpec spec;
  spec.name = "small";
  spec.dims[ResourceDim::kCpu] =
      workload::DimensionSpec::DailyPeriodic(1.0, 0.5);
  spec.dims[ResourceDim::kIops] =
      workload::DimensionSpec::DailyPeriodic(300.0, 200.0);
  StatusOr<telemetry::PerfTrace> trace =
      workload::GenerateTrace(spec, 2.0, &rng);
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(telemetry::WriteTraceFile(*trace, path).ok());
}

// `args` fails as INVALID_ARGUMENT (exit 3) with `message` in its output.
void ExpectInvalidFlag(const std::vector<std::string>& args,
                       const std::string& message) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain(args, out), 3) << out.str();
  EXPECT_NE(out.str().find(message), std::string::npos) << out.str();
}

// An integer flag past INT_MAX used to wrap: --jobs 4294967297 ran one job
// and --seed 4294967296 fitted with seed 0. Each is now refused, naming the
// flag, before anything runs.
TEST(CliRunTest, RejectsIntegerFlagsThatWrap) {
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string trace = dir.path() + "/small.csv";
  WriteSmallTrace(trace);
  const std::string empty = dir.path() + "/empty";
  ASSERT_TRUE(std::filesystem::create_directory(empty));
  ExpectInvalidFlag(
      {"assess-batch", "--traces", dir.path(), "--jobs", "4294967297"},
      "--jobs must be at most 256, got '4294967297'");
  ExpectInvalidFlag(
      {"assess-batch", "--traces", dir.path(), "--jobs", "2147483648"},
      "--jobs must be at most 256, got '2147483648'");
  ExpectInvalidFlag({"serve", "--spool", empty, "--jobs", "4294967297"},
                    "--jobs must be at most 256");
  const std::string too_big = " must be at most 2147483647, got '";
  ExpectInvalidFlag({"serve", "--spool", empty, "--queue-depth", "4294967297"},
                    "--queue-depth" + too_big);
  ExpectInvalidFlag({"fit-profiles", "--customers", "5", "--seed",
                     "4294967296", "--out", dir.path() + "/model.csv"},
                    "--seed" + too_big);
  ExpectInvalidFlag({"forecast", "--trace", trace, "--months", "4294967308"},
                    "--months" + too_big);
  ExpectInvalidFlag({"monitor", "--spool", empty, "--rounds",
                     "99999999999999999999999"},
                    "--rounds" + too_big);
}

// Each --jobs worker is a thread: assess-batch and serve refuse more than
// 256 before they start any.
TEST(CliRunTest, RejectsJobsAboveTheBound) {
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  WriteSmallTrace(dir.path() + "/small.csv");
  for (const char* jobs : {"257", "100000"}) {
    SCOPED_TRACE(jobs);
    const std::string message =
        std::string("--jobs must be at most 256, got '") + jobs + "'";
    ExpectInvalidFlag({"assess-batch", "--traces", dir.path(), "--jobs", jobs},
                      message);
    ExpectInvalidFlag({"serve", "--spool", dir.path(), "--jobs", jobs},
                      message);
  }
  // The bound itself is a valid job count (one trace starts no thread).
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess-batch", "--traces", dir.path(), "--jobs",
                          "256"},
                         out),
            0)
      << out.str();
  EXPECT_NE(out.str().find("Assessed 1/1 traces with 256 job(s)"),
            std::string::npos)
      << out.str();
}

class CliFlowTest : public ::testing::Test {
 protected:
  static std::string TempPath(const char* name) {
    return dir_->path() + "/" + name;
  }

  // Stage a trace file once for the suite, in this process's own
  // directory.
  static void SetUpTestSuite() {
    dir_ = new PrivateTempDir();
    ASSERT_FALSE(dir_->path().empty());
    Rng rng(31);
    workload::WorkloadSpec spec;
    spec.name = "cli";
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::DailyPeriodic(1.2, 0.8);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(400.0, 250.0);
    spec.dims[ResourceDim::kIoLatencyMs] =
        workload::DimensionSpec::Steady(7.0, 0.02);
    StatusOr<telemetry::PerfTrace> trace =
        workload::GenerateTrace(spec, 7.0, &rng);
    ASSERT_TRUE(trace.ok());
    ASSERT_TRUE(
        telemetry::WriteTraceFile(*trace, TempPath("cli_trace.csv")).ok());
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static PrivateTempDir* dir_;
};

PrivateTempDir* CliFlowTest::dir_ = nullptr;

TEST_F(CliFlowTest, CatalogDumpAndReload) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"catalog", "--out", TempPath("cli_skus.csv")}, out),
            0);
  EXPECT_NE(out.str().find("156 SKUs"), std::string::npos);
  // Extended catalog is bigger.
  std::ostringstream extended;
  EXPECT_EQ(dma::CliMain({"catalog", "--extended", "--out",
                          TempPath("cli_skus_ext.csv")},
                         extended),
            0);
  EXPECT_NE(extended.str().find("209 SKUs"), std::string::npos);
}

TEST_F(CliFlowTest, FitProfilesThenAssessFromFiles) {
  std::ostringstream fit;
  EXPECT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "40", "--seed", "3", "--out",
                          TempPath("cli_prof.csv")},
                         fit),
            0);
  std::ostringstream assess;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_trace.csv"),
                          "--profiles", TempPath("cli_prof.csv")},
                         assess),
            0);
  const std::string report = assess.str();
  EXPECT_NE(report.find("Doppler recommendation"), std::string::npos);
  EXPECT_NE(report.find("SQL DB"), std::string::npos);
  EXPECT_NE(report.find("Legacy baseline"), std::string::npos);
  // No on-the-fly fitting message: profiles came from the file.
  EXPECT_EQ(report.find("fitting the group model offline"),
            std::string::npos);
}

// With its default flags, fit-profiles writes the model a plain `assess`
// ships: it loads back bit-identical to DefaultGroupModel.
TEST_F(CliFlowTest, DefaultFitProfilesLoadsBackAsTheShippedModel) {
  const catalog::TargetSpec& azure =
      *catalog::TargetRegistry::BuiltIns().Find("azure-db");
  for (const auto& [flag, deployment] :
       {std::pair{"db", Deployment::kSqlDb},
        std::pair{"mi", Deployment::kSqlMi}}) {
    SCOPED_TRACE(flag);
    std::ostringstream fit;
    ASSERT_EQ(dma::CliMain({"fit-profiles", "--deployment", flag, "--out",
                            TempPath("cli_prof_default.csv")},
                           fit),
              0)
        << fit.str();
    StatusOr<core::GroupModel> loaded =
        dma::LoadGroupModel(TempPath("cli_prof_default.csv"));
    StatusOr<core::GroupModel> shipped =
        dma::DefaultGroupModel(azure, deployment);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
    ExpectBitIdentical(*loaded, *shipped);
  }
}

// The number of spans named `name` in a Chrome trace file.
std::size_t SpanCount(const std::string& trace_path, const std::string& name) {
  std::ifstream in(trace_path);
  const std::string trace((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string key = "\"name\":\"" + name + "\"";
  std::size_t count = 0;
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    ++count;
  }
  return count;
}

// The model phase is named in the trace: a plain assess loads the shipped
// model, and --extended fits one on its own catalog.
TEST_F(CliFlowTest, TracedAssessNamesTheModelPhase) {
  for (const bool extended : {false, true}) {
    SCOPED_TRACE(extended ? "--extended" : "default catalog");
    std::vector<std::string> args = {"assess", "--trace",
                                     TempPath("cli_trace.csv"), "--json",
                                     "--trace-out", TempPath("cli_spans.json")};
    if (extended) args.push_back("--extended");
    std::ostringstream out;
    ASSERT_EQ(dma::CliMain(args, out), 0) << out.str();
    const std::string spans = TempPath("cli_spans.json");
    EXPECT_EQ(SpanCount(spans, "dma.model_load"), extended ? 0u : 1u);
    EXPECT_EQ(SpanCount(spans, "dma.model_fit"), extended ? 1u : 0u);
  }
}

// Every phase of a batch is named: each file's read, gate and render (the
// unusable file's too), one fan-out and one report write.
TEST_F(CliFlowTest, TracedAssessBatchNamesEveryPhase) {
  const std::string batch = TempPath("batch");
  ASSERT_TRUE(std::filesystem::create_directory(batch));
  for (const char* name : {"a.csv", "b.csv", "c.csv"}) {
    std::filesystem::copy_file(TempPath("cli_trace.csv"), batch + "/" + name);
  }
  std::ofstream(batch + "/broken.csv") << "bogus,columns\n1,2\n";
  const std::string spans = TempPath("batch_spans.json");
  std::ostringstream out;
  ASSERT_EQ(dma::CliMain({"assess-batch", "--traces", batch, "--jobs", "2",
                          "--json", "--out", TempPath("batch.json"),
                          "--trace-out", spans},
                         out),
            1)
      << out.str();
  EXPECT_EQ(SpanCount(spans, "telemetry.read"), 4u);
  EXPECT_EQ(SpanCount(spans, "quality.gate_csv"), 4u);
  EXPECT_EQ(SpanCount(spans, "dma.render"), 4u);
  EXPECT_EQ(SpanCount(spans, "pipeline.assess"), 3u);
  EXPECT_EQ(SpanCount(spans, "exec.fleet_assess"), 1u);
  EXPECT_EQ(SpanCount(spans, "dma.write"), 1u);
}

TEST_F(CliFlowTest, AssessRequiresTrace) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess"}, out), 3);
  EXPECT_NE(out.str().find("--trace"), std::string::npos);
}

TEST_F(CliFlowTest, SynthCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"synth", "--trace", TempPath("cli_trace.csv")},
                         out),
            0);
  EXPECT_NE(out.str().find("Synthesized workload"), std::string::npos);
  EXPECT_NE(out.str().find("Fit error"), std::string::npos);
}

TEST_F(CliFlowTest, ForecastCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"forecast", "--trace", TempPath("cli_trace.csv"),
                          "--months", "3", "--current-sku", "DB_GP_Gen5_2"},
                         out),
            0);
  EXPECT_NE(out.str().find("Month"), std::string::npos);
  EXPECT_NE(out.str().find("Right-sized SKU"), std::string::npos);
}

TEST_F(CliFlowTest, DriftCommand) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"drift", "--trace", TempPath("cli_trace.csv"),
                          "--current-sku", "DB_GP_Gen5_2"},
                         out),
            0);
  EXPECT_NE(out.str().find("SKU change needed"), std::string::npos);
  std::ostringstream missing;
  EXPECT_EQ(dma::CliMain({"drift", "--trace", TempPath("cli_trace.csv")},
                         missing),
            3);
}

TEST_F(CliFlowTest, AssessJsonIsWellFormed) {
  std::ostringstream fit;
  ASSERT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "30", "--seed", "4", "--out",
                          TempPath("cli_prof_json.csv")},
                         fit),
            0);
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_trace.csv"),
                          "--profiles", TempPath("cli_prof_json.csv"),
                          "--json"},
                         out),
            0);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{", 0), 0u);  // Starts with an object.
  EXPECT_NE(json.find("\"elastic\""), std::string::npos);
  EXPECT_NE(json.find("\"negotiability\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(CliFlowTest, BadFlagValuesSurfaceErrors) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"forecast", "--trace", TempPath("cli_trace.csv"),
                          "--months", "zero"},
                         out),
            3);
  EXPECT_NE(out.str().find("positive integer"), std::string::npos);
  std::ostringstream bad_deployment;
  EXPECT_EQ(dma::CliMain({"fit-profiles", "--deployment", "oracle"},
                         bad_deployment),
            3);
}

// ------------------------------------------------ Typed exit codes.

TEST(CliExitCodeTest, StatusCodesMapToDistinctNonzeroExitCodes) {
  EXPECT_EQ(dma::ExitCodeForStatus(OkStatus()), 0);
  EXPECT_EQ(dma::ExitCodeForStatus(InvalidArgumentError("x")), 3);
  EXPECT_EQ(dma::ExitCodeForStatus(NotFoundError("x")), 4);
  EXPECT_EQ(dma::ExitCodeForStatus(FailedPreconditionError("x")), 5);
  EXPECT_EQ(dma::ExitCodeForStatus(OutOfRangeError("x")), 6);
  EXPECT_EQ(dma::ExitCodeForStatus(UnavailableError("x")), 7);
  EXPECT_EQ(dma::ExitCodeForStatus(InternalError("x")), 8);
}

TEST_F(CliFlowTest, MissingTraceFileExitsUnavailable) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace",
                          TempPath("does_not_exist.csv")},
                         out),
            7);
}

TEST_F(CliFlowTest, UnknownQualityPolicyRejected) {
  std::ostringstream out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_trace.csv"),
                          "--quality", "lenient"},
                         out),
            3);
  EXPECT_NE(out.str().find("quality policy"), std::string::npos);
}

TEST_F(CliFlowTest, StrictQualityRejectsDirtyTraceWithTypedExit) {
  // A trace with a one-slot collector gap: strict refuses, repair assesses.
  CsvTable dirty({"t_seconds", "cpu", "iops"});
  for (int i = 0; i < 40; ++i) {
    if (i == 20) continue;
    (void)dirty.AddRow({std::to_string(i * 600),
                        FormatDouble(0.5 + 0.1 * (i % 7), 2),
                        FormatDouble(100.0 + 10.0 * (i % 5), 2)});
  }
  ASSERT_TRUE(dirty.WriteFile(TempPath("cli_dirty.csv")).ok());

  std::ostringstream strict;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_dirty.csv"),
                          "--quality", "strict"},
                         strict),
            5);
  EXPECT_NE(strict.str().find("FAILED_PRECONDITION"), std::string::npos);
}

TEST_F(CliFlowTest, RepairQualitySurfacesSummaryAndJsonReport) {
  CsvTable dirty({"t_seconds", "cpu", "iops"});
  for (int i = 0; i < 40; ++i) {
    if (i == 20) continue;
    (void)dirty.AddRow({std::to_string(i * 600),
                        i == 5 ? "nan" : FormatDouble(0.5 + 0.1 * (i % 7), 2),
                        FormatDouble(100.0 + 10.0 * (i % 5), 2)});
  }
  ASSERT_TRUE(dirty.WriteFile(TempPath("cli_dirty2.csv")).ok());

  std::ostringstream fit;
  ASSERT_EQ(dma::CliMain({"fit-profiles", "--deployment", "db",
                          "--customers", "30", "--seed", "4", "--out",
                          TempPath("cli_prof_q.csv")},
                         fit),
            0);
  std::ostringstream human;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_dirty2.csv"),
                          "--profiles", TempPath("cli_prof_q.csv")},
                         human),
            0);
  EXPECT_NE(human.str().find("Telemetry quality:"), std::string::npos);
  EXPECT_NE(human.str().find("gap"), std::string::npos);

  std::ostringstream json_out;
  EXPECT_EQ(dma::CliMain({"assess", "--trace", TempPath("cli_dirty2.csv"),
                          "--profiles", TempPath("cli_prof_q.csv"),
                          "--json"},
                         json_out),
            0);
  const std::string json = json_out.str();
  EXPECT_NE(json.find("\"quality\""), std::string::npos);
  EXPECT_NE(json.find("\"non_finite\""), std::string::npos);
  EXPECT_NE(json.find("\"gap\""), std::string::npos);
}

}  // namespace
}  // namespace doppler
