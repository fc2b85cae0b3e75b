// Unit tests for src/util: Status/StatusOr, RNG, strings, CSV, atomic
// file writes, tables, plots.

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "private_temp_dir.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace doppler {
namespace {

// ---------------------------------------------------------------- Status.

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("no such SKU");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such SKU");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: no such SKU");
}

TEST(StatusTest, OkStatusDropsMessage) {
  Status status(StatusCode::kOk, "ignored");
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x"), InvalidArgumentError("x"));
  EXPECT_FALSE(InvalidArgumentError("x") == InvalidArgumentError("y"));
  EXPECT_FALSE(InvalidArgumentError("x") == InternalError("x"));
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      InvalidArgumentError("").code(), NotFoundError("").code(),
      FailedPreconditionError("").code(), OutOfRangeError("").code(),
      UnavailableError("").code(), InternalError("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

Status FailThrough() {
  DOPPLER_RETURN_IF_ERROR(InvalidArgumentError("inner"));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailThrough().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- StatusOr.

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return OutOfRangeError("not positive");
  return x;
}

StatusOr<int> DoublePositive(int x) {
  DOPPLER_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 4);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, AssignOrReturnPropagatesValue) {
  StatusOr<int> doubled = DoublePositive(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(*doubled, 42);
}

TEST(StatusOrTest, AssignOrReturnPropagatesError) {
  EXPECT_FALSE(DoublePositive(0).ok());
}

TEST(StatusOrTest, ConstructingFromOkStatusBecomesInternalError) {
  StatusOr<int> bogus{OkStatus()};
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> taken = std::move(result).value();
  EXPECT_EQ(*taken, 7);
}

// ------------------------------------------------------------------- Rng.

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All buckets hit over 1000 draws.
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.5);
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApproximation) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(100.0);
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, BernoulliFrequencyMatches) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng parent1(77);
  Rng parent2(77);
  parent2.NextUint64();  // Consume differently before forking.
  // Forks mix current state, so streams differ; but the same parent state
  // forks identically.
  Rng fork_a = parent1.Fork(5);
  Rng parent3(77);
  Rng fork_b = parent3.Fork(5);
  EXPECT_EQ(fork_a.NextUint64(), fork_b.NextUint64());
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(31);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

// --------------------------------------------------------------- Logging.

TEST(LoggingTest, MinLevelRoundTrips) {
  const LogLevel original = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  SetMinLogLevel(LogLevel::kDebug);
  EXPECT_EQ(MinLogLevel(), LogLevel::kDebug);
  SetMinLogLevel(original);
}

TEST(LoggingTest, MacroStreamsWithoutCrashing) {
  // Suppress output for the test, then exercise every level.
  const LogLevel original = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  DOPPLER_LOG(kDebug) << "debug " << 1;
  DOPPLER_LOG(kInfo) << "info " << 2.5;
  DOPPLER_LOG(kWarning) << "warn " << "text";
  SetMinLogLevel(original);
  SUCCEED();
}

TEST(LoggingTest, SuppressedLevelsSkipMessageEvaluation) {
  const LogLevel original = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("built");
  };
  DOPPLER_LOG(kDebug) << expensive();
  DOPPLER_LOG(kInfo) << expensive();
  EXPECT_EQ(evaluations, 0);  // Below the threshold: never constructed.
  DOPPLER_LOG(kError) << expensive();
  EXPECT_EQ(evaluations, 1);
  SetMinLogLevel(original);
}

TEST(LoggingTest, ParseLogLevelRecognisesNames) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kError);  // Untouched on failure.
  EXPECT_STREQ(LogLevelName(LogLevel::kWarning), "warning");
}

TEST(LoggingTest, JsonFormatEmitsOneJsonObjectPerLine) {
  const LogLevel original = MinLogLevel();
  SetMinLogLevel(LogLevel::kInfo);
  SetLogFormat(LogFormat::kJson);
  testing::internal::CaptureStderr();
  DOPPLER_LOG(kInfo) << "structured \"quoted\" message";
  const std::string line = testing::internal::GetCapturedStderr();
  SetLogFormat(LogFormat::kText);
  SetMinLogLevel(original);
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"message\":\"structured \\\"quoted\\\" message\""),
            std::string::npos);
  EXPECT_NE(line.find("\"line\":"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

// --------------------------------------------------------------- Strings.

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::string text = "one,two,three";
  EXPECT_EQ(Join(Split(text, ','), ","), text);
}

TEST(StringUtilTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.894), "89.4%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

TEST(StringUtilTest, FormatDollarsInsertsThousandsSeparators) {
  EXPECT_EQ(FormatDollars(1.36), "$1.36");
  EXPECT_EQ(FormatDollars(1036.5), "$1,036.50");
  EXPECT_EQ(FormatDollars(1234567.0, 0), "$1,234,567");
  EXPECT_EQ(FormatDollars(-42.0), "-$42.00");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("DB_GP_Gen5_4", "DB_GP"));
  EXPECT_FALSE(StartsWith("DB", "DB_GP"));
}

// ------------------------------------------------------------------- CSV.

TEST(CsvTest, RowWidthIsEnforced) {
  CsvTable table({"a", "b"});
  EXPECT_TRUE(table.AddRow({"1", "2"}).ok());
  EXPECT_EQ(table.AddRow({"1"}).code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RoundTripThroughText) {
  CsvTable table({"t", "cpu", "iops"});
  ASSERT_TRUE(table.AddRow({"0", "1.5", "640"}).ok());
  ASSERT_TRUE(table.AddRow({"600", "1.8", "700"}).ok());
  StatusOr<CsvTable> parsed = CsvTable::Parse(table.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->header(), table.header());
  EXPECT_EQ(parsed->row(1)[2], "700");
}

TEST(CsvTest, ColumnIndexLookup) {
  CsvTable table({"x", "y"});
  StatusOr<std::size_t> idx = table.ColumnIndex("y");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_EQ(table.ColumnIndex("z").status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, ParseRejectsEmptyDocument) {
  EXPECT_EQ(CsvTable::Parse("").status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable table({"k", "v"});
  ASSERT_TRUE(table.AddRow({"a", "1"}).ok());
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/table.csv";
  ASSERT_TRUE(table.WriteFile(path).ok());
  StatusOr<CsvTable> loaded = CsvTable::ReadFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->row(0)[0], "a");
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(CsvTable::ReadFile("/nonexistent/doppler.csv").status().code(),
            StatusCode::kUnavailable);
}

// A spool reader that opened a trace before it was rewritten must still
// read the complete old trace, never a truncated or mixed one.
TEST(CsvTest, WriteFileNeverRewritesAnOpenFileInPlace) {
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/trace.csv";
  CsvTable before({"t_seconds", "cpu"});
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(before.AddRow({std::to_string(i * 600), "1.25"}).ok());
  }
  ASSERT_TRUE(before.WriteFile(path).ok());

  std::ifstream reader(path);
  ASSERT_TRUE(reader.is_open());
  CsvTable after({"t_seconds", "cpu"});
  ASSERT_TRUE(after.AddRow({"0", "9.5"}).ok());
  ASSERT_TRUE(after.WriteFile(path).ok());

  std::ostringstream seen;
  seen << reader.rdbuf();
  EXPECT_EQ(seen.str(), before.ToString());
  StatusOr<CsvTable> reread = CsvTable::ReadFile(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->ToString(), after.ToString());
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
}

// ---------------------------------------------------------- Atomic writes.

TEST(AtomicWriteTest, ReplacesContentAndLeavesNoTempFiles) {
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/export.txt";
  ASSERT_TRUE(WriteTextFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteTextFileAtomic(path, "second").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  // The published file is the only entry: no .tmp.* sibling survives.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename(), "export.txt");
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicWriteTest, FailsCleanlyOnUnwritableDirectory) {
  const Status status =
      WriteTextFileAtomic("/nonexistent-dir-zz/file.txt", "content");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

// ----------------------------------------------------------------- Table.

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Name", "Value"});
  table.AddRow({"cpu", "1"});
  table.AddRow({"memory_long_name", "2"});
  const std::string text = table.ToString();
  // Header row, separator and two data rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("| Name"), std::string::npos);
  EXPECT_NE(text.find("| memory_long_name |"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  const std::string text = table.ToString();
  EXPECT_NE(text.find("only"), std::string::npos);
}

// ----------------------------------------------------------------- Plots.

TEST(AsciiPlotTest, LinePlotContainsMarksAndAxis) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(std::sin(i * 0.1));
  PlotOptions options;
  options.title = "wave";
  const std::string plot = LinePlot(values, options);
  EXPECT_NE(plot.find("wave"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find('+'), std::string::npos);
}

TEST(AsciiPlotTest, HandlesConstantSeries) {
  const std::string plot = LinePlot(std::vector<double>(50, 3.0));
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlotTest, HandlesEmptySeries) {
  const std::string plot = LinePlot({});
  EXPECT_FALSE(plot.empty());
}

TEST(AsciiPlotTest, DualPlotShowsBothGlyphs) {
  std::vector<double> a(60, 1.0);
  std::vector<double> b(60, 2.0);
  const std::string plot = DualLinePlot(a, b);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find('o'), std::string::npos);
}

TEST(AsciiPlotTest, ScatterShowsRange) {
  const std::string plot =
      ScatterPlot({1.0, 2.0, 3.0}, {10.0, 20.0, 30.0});
  EXPECT_NE(plot.find("x: [1.00, 3.00]"), std::string::npos);
}

TEST(AsciiPlotTest, BarChartScalesBars) {
  const std::string chart = BarChart({"a", "b"}, {1.0, 2.0});
  const std::size_t a_hashes =
      std::count(chart.begin(), chart.begin() + chart.find('\n'), '#');
  const std::size_t b_hashes =
      std::count(chart.begin() + chart.find('\n'), chart.end(), '#');
  EXPECT_GT(b_hashes, a_hashes);
}

}  // namespace
}  // namespace doppler
