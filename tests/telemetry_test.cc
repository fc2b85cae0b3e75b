// Unit tests for src/telemetry: traces, aggregation, the simulated
// collector, and CSV IO.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "private_temp_dir.h"
#include "stats/descriptive.h"
#include "telemetry/aggregate.h"
#include "telemetry/collector.h"
#include "telemetry/perf_trace.h"
#include "telemetry/trace_io.h"
#include "telemetry/trace_stats.h"
#include "util/random.h"

namespace doppler::telemetry {
namespace {

using catalog::ResourceDim;

PerfTrace MakeTrace(std::initializer_list<double> cpu,
                    std::initializer_list<double> iops) {
  PerfTrace trace;
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops, iops).ok());
  return trace;
}

// --------------------------------------------------------------- PerfTrace.

TEST(PerfTraceTest, FirstSeriesFixesLength) {
  PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1, 2, 3}).ok());
  EXPECT_EQ(trace.num_samples(), 3u);
  EXPECT_EQ(trace.SetSeries(ResourceDim::kIops, {1, 2}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops, {4, 5, 6}).ok());
}

TEST(PerfTraceTest, ReplacingSeriesKeepsLength) {
  PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1, 2, 3}).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {7, 8, 9}).ok());
  EXPECT_EQ(trace.Values(ResourceDim::kCpu)[0], 7.0);
}

TEST(PerfTraceTest, MissingDimIsEmptyAndAbsent) {
  const PerfTrace trace = MakeTrace({1, 2}, {3, 4});
  EXPECT_FALSE(trace.Has(ResourceDim::kMemoryGb));
  EXPECT_TRUE(trace.Values(ResourceDim::kMemoryGb).empty());
}

TEST(PerfTraceTest, DemandAtAlignsDims) {
  const PerfTrace trace = MakeTrace({1, 2}, {100, 200});
  const catalog::ResourceVector demand = trace.DemandAt(1);
  EXPECT_DOUBLE_EQ(demand.Get(ResourceDim::kCpu), 2.0);
  EXPECT_DOUBLE_EQ(demand.Get(ResourceDim::kIops), 200.0);
  EXPECT_FALSE(demand.Has(ResourceDim::kMemoryGb));
}

TEST(PerfTraceTest, SelectReordersAllDims) {
  const PerfTrace trace = MakeTrace({1, 2, 3}, {10, 20, 30});
  const PerfTrace picked = trace.Select({2, 0});
  EXPECT_EQ(picked.num_samples(), 2u);
  EXPECT_EQ(picked.Values(ResourceDim::kCpu),
            (std::vector<double>{3, 1}));
  EXPECT_EQ(picked.Values(ResourceDim::kIops),
            (std::vector<double>{30, 10}));
}

TEST(PerfTraceTest, WindowClampsToLength) {
  const PerfTrace trace = MakeTrace({1, 2, 3, 4}, {1, 2, 3, 4});
  EXPECT_EQ(trace.Window(1, 2).num_samples(), 2u);
  EXPECT_EQ(trace.Window(3, 10).num_samples(), 1u);
  EXPECT_EQ(trace.Window(10, 5).num_samples(), 0u);
}

TEST(PerfTraceTest, DurationUsesIntervalAndCount) {
  PerfTrace trace(600);
  ASSERT_TRUE(
      trace.SetSeries(ResourceDim::kCpu, std::vector<double>(144, 1.0)).ok());
  EXPECT_DOUBLE_EQ(trace.DurationDays(), 1.0);
}

TEST(PerfTraceTest, DmaConstantsConsistent) {
  EXPECT_EQ(kDmaIntervalSeconds, 600);
  EXPECT_EQ(kSamplesPerDay, 144);
}

// -------------------------------------------------------------- Resample.

TEST(ResampleTest, AverageMaxSum) {
  const std::vector<double> values = {1, 2, 3, 4, 5, 6};
  StatusOr<std::vector<double>> avg = Resample(values, 60, 180, AggKind::kAverage);
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(*avg, (std::vector<double>{2, 5}));
  StatusOr<std::vector<double>> max = Resample(values, 60, 180, AggKind::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(*max, (std::vector<double>{3, 6}));
  StatusOr<std::vector<double>> sum = Resample(values, 60, 180, AggKind::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, (std::vector<double>{6, 15}));
}

TEST(ResampleTest, PartialTrailingBin) {
  StatusOr<std::vector<double>> result =
      Resample({2, 4, 9}, 60, 120, AggKind::kAverage);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<double>{3, 9}));
}

TEST(ResampleTest, IdentityWhenSameInterval) {
  StatusOr<std::vector<double>> result =
      Resample({1, 2, 3}, 600, 600, AggKind::kAverage);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<double>{1, 2, 3}));
}

TEST(ResampleTest, RejectsNonMultipleIntervals) {
  EXPECT_FALSE(Resample({1}, 60, 90, AggKind::kAverage).ok());
  EXPECT_FALSE(Resample({1}, 0, 60, AggKind::kAverage).ok());
  EXPECT_FALSE(Resample({1}, 60, -60, AggKind::kAverage).ok());
}

TEST(ResampleTraceTest, AllDimsRebinned) {
  PerfTrace raw(60);
  ASSERT_TRUE(raw.SetSeries(ResourceDim::kCpu,
                            std::vector<double>(600, 1.0)).ok());
  ASSERT_TRUE(raw.SetSeries(ResourceDim::kStorageGb,
                            std::vector<double>(600, 50.0)).ok());
  StatusOr<PerfTrace> rebinned = ResampleTrace(raw, 600);
  ASSERT_TRUE(rebinned.ok());
  EXPECT_EQ(rebinned->num_samples(), 60u);
  EXPECT_EQ(rebinned->interval_seconds(), 600);
  EXPECT_DOUBLE_EQ(rebinned->Values(ResourceDim::kCpu)[0], 1.0);
  EXPECT_DOUBLE_EQ(rebinned->Values(ResourceDim::kStorageGb)[0], 50.0);
}

// ---------------------------------------------------------------- Rollup.

PerfTrace DbTrace(double cpu, double iops, double latency) {
  PerfTrace trace;
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kCpu,
                              std::vector<double>(10, cpu)).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIops,
                              std::vector<double>(10, iops)).ok());
  EXPECT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs,
                              std::vector<double>(10, latency)).ok());
  return trace;
}

TEST(RollupTest, SumsAdditiveDims) {
  StatusOr<PerfTrace> instance =
      RollupToInstance({DbTrace(1.0, 100.0, 5.0), DbTrace(2.0, 300.0, 5.0)});
  ASSERT_TRUE(instance.ok());
  EXPECT_DOUBLE_EQ(instance->Values(ResourceDim::kCpu)[0], 3.0);
  EXPECT_DOUBLE_EQ(instance->Values(ResourceDim::kIops)[0], 400.0);
}

TEST(RollupTest, LatencyIsIopsWeighted) {
  // db1: 100 IOPS at 2ms; db2: 300 IOPS at 6ms -> weighted 5ms.
  StatusOr<PerfTrace> instance =
      RollupToInstance({DbTrace(1.0, 100.0, 2.0), DbTrace(1.0, 300.0, 6.0)});
  ASSERT_TRUE(instance.ok());
  EXPECT_DOUBLE_EQ(instance->Values(ResourceDim::kIoLatencyMs)[0], 5.0);
}

TEST(RollupTest, PartiallyPresentDimsDropped) {
  PerfTrace with_memory = DbTrace(1.0, 100.0, 5.0);
  ASSERT_TRUE(with_memory
                  .SetSeries(ResourceDim::kMemoryGb,
                             std::vector<double>(10, 8.0))
                  .ok());
  StatusOr<PerfTrace> instance =
      RollupToInstance({with_memory, DbTrace(1.0, 100.0, 5.0)});
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE(instance->Has(ResourceDim::kMemoryGb));
  EXPECT_TRUE(instance->Has(ResourceDim::kCpu));
}

TEST(RollupTest, MismatchedInputsRejected) {
  EXPECT_FALSE(RollupToInstance({}).ok());
  PerfTrace short_trace;
  ASSERT_TRUE(short_trace.SetSeries(ResourceDim::kCpu, {1.0}).ok());
  EXPECT_FALSE(RollupToInstance({DbTrace(1, 1, 1), short_trace}).ok());
  PerfTrace different_cadence(60);
  ASSERT_TRUE(different_cadence
                  .SetSeries(ResourceDim::kCpu, std::vector<double>(10, 1.0))
                  .ok());
  EXPECT_FALSE(RollupToInstance({DbTrace(1, 1, 1), different_cadence}).ok());
}

// ------------------------------------------------------------- Collector.

catalog::ResourceVector ConstantSource(std::int64_t) {
  catalog::ResourceVector demand;
  demand.Set(ResourceDim::kCpu, 2.0);
  demand.Set(ResourceDim::kIops, 500.0);
  return demand;
}

TEST(CollectorTest, ProducesDmaCadenceTrace) {
  Rng rng(1);
  CollectorOptions options;
  options.duration_days = 2.0;
  options.noise_sigma = 0.0;
  StatusOr<PerfTrace> trace = CollectTrace(ConstantSource, options, &rng);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->interval_seconds(), kDmaIntervalSeconds);
  EXPECT_EQ(trace->num_samples(), static_cast<std::size_t>(2 * kSamplesPerDay));
  EXPECT_DOUBLE_EQ(trace->Values(ResourceDim::kCpu)[10], 2.0);
}

TEST(CollectorTest, NoiseIsUnbiasedOnAverage) {
  Rng rng(2);
  CollectorOptions options;
  options.duration_days = 7.0;
  options.noise_sigma = 0.05;
  StatusOr<PerfTrace> trace = CollectTrace(ConstantSource, options, &rng);
  ASSERT_TRUE(trace.ok());
  EXPECT_NEAR(stats::Mean(trace->Values(ResourceDim::kCpu)), 2.0, 0.02);
}

TEST(CollectorTest, DropsCarryLastReadingForward) {
  Rng rng(3);
  CollectorOptions options;
  options.duration_days = 1.0;
  options.noise_sigma = 0.0;
  options.drop_probability = 0.5;
  StatusOr<PerfTrace> trace = CollectTrace(ConstantSource, options, &rng);
  ASSERT_TRUE(trace.ok());
  // Constant source + carry-forward = still constant.
  for (double v : trace->Values(ResourceDim::kCpu)) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(CollectorTest, RejectsBadOptions) {
  Rng rng(4);
  CollectorOptions options;
  EXPECT_FALSE(CollectTrace(nullptr, options, &rng).ok());
  EXPECT_FALSE(CollectTrace(ConstantSource, options, nullptr).ok());
  options.duration_days = -1.0;
  EXPECT_FALSE(CollectTrace(ConstantSource, options, &rng).ok());
  options.duration_days = 1.0;
  options.raw_interval_seconds = 70;  // Does not divide 600.
  EXPECT_FALSE(CollectTrace(ConstantSource, options, &rng).ok());
}

TEST(CollectorTest, EmptySourceRejected) {
  Rng rng(5);
  CollectorOptions options;
  options.duration_days = 1.0;
  auto empty_source = [](std::int64_t) { return catalog::ResourceVector(); };
  EXPECT_FALSE(CollectTrace(empty_source, options, &rng).ok());
}

// --------------------------------------------------------------- CSV IO.

TEST(TraceIoTest, RoundTripPreservesValues) {
  PerfTrace trace(600);
  trace.set_id("db-1");
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1.25, 2.5, 3.75}).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kIoLatencyMs, {5.0, 5.5, 6.0}).ok());

  const CsvTable table = TraceToCsv(trace);
  EXPECT_EQ(table.num_rows(), 3u);
  StatusOr<PerfTrace> parsed = TraceFromCsv(table);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->interval_seconds(), 600);
  EXPECT_EQ(parsed->num_samples(), 3u);
  EXPECT_NEAR(parsed->Values(ResourceDim::kCpu)[1], 2.5, 1e-6);
  EXPECT_NEAR(parsed->Values(ResourceDim::kIoLatencyMs)[2], 6.0, 1e-6);
}

TEST(TraceIoTest, FileRoundTrip) {
  PerfTrace trace(600);
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, {4.0, 8.0}).ok());
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/trace.csv";
  ASSERT_TRUE(WriteTraceFile(trace, path).ok());
  StatusOr<PerfTrace> loaded = ReadTraceFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Values(ResourceDim::kMemoryGb),
            (std::vector<double>{4.0, 8.0}));
}

TEST(TraceIoTest, UnknownColumnsIgnored) {
  CsvTable table({"t_seconds", "cpu", "mystery"});
  ASSERT_TRUE(table.AddRow({"0", "1.0", "x"}).ok());
  ASSERT_TRUE(table.AddRow({"600", "2.0", "y"}).ok());
  StatusOr<PerfTrace> parsed = TraceFromCsv(table);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Has(ResourceDim::kCpu));
  EXPECT_EQ(parsed->PresentDims().size(), 1u);
}

TEST(TraceIoTest, MalformedNumberRejected) {
  CsvTable table({"t_seconds", "cpu"});
  ASSERT_TRUE(table.AddRow({"0", "abc"}).ok());
  EXPECT_FALSE(TraceFromCsv(table).ok());
}

TEST(TraceIoTest, NonIncreasingTimeRejected) {
  CsvTable table({"t_seconds", "cpu"});
  ASSERT_TRUE(table.AddRow({"600", "1"}).ok());
  ASSERT_TRUE(table.AddRow({"600", "2"}).ok());
  EXPECT_FALSE(TraceFromCsv(table).ok());
}

TEST(TraceIoTest, NoKnownColumnsRejected) {
  CsvTable table({"t_seconds", "mystery"});
  ASSERT_TRUE(table.AddRow({"0", "1"}).ok());
  EXPECT_FALSE(TraceFromCsv(table).ok());
}

TEST(TraceIoTest, MonotonicityCheckedOnEveryRowNotJustTheFirstPair) {
  // The violation sits deep in the file: rows 1-3 are fine.
  CsvTable table({"t_seconds", "cpu"});
  ASSERT_TRUE(table.AddRow({"0", "1"}).ok());
  ASSERT_TRUE(table.AddRow({"600", "2"}).ok());
  ASSERT_TRUE(table.AddRow({"1200", "3"}).ok());
  ASSERT_TRUE(table.AddRow({"900", "4"}).ok());
  const Status status = TraceFromCsv(table).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The error names the offending row so the collector bug is findable.
  EXPECT_NE(status.message().find("data row 4"), std::string::npos);
}

TEST(TraceIoTest, NonFiniteCellsRejectedWithRowContext) {
  CsvTable values({"t_seconds", "cpu"});
  ASSERT_TRUE(values.AddRow({"0", "1.0"}).ok());
  ASSERT_TRUE(values.AddRow({"600", "nan"}).ok());
  const Status bad_value = TraceFromCsv(values).status();
  EXPECT_EQ(bad_value.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_value.message().find("data row 2"), std::string::npos);
  EXPECT_NE(bad_value.message().find("cpu"), std::string::npos);

  CsvTable times({"t_seconds", "cpu"});
  ASSERT_TRUE(times.AddRow({"inf", "1.0"}).ok());
  ASSERT_TRUE(times.AddRow({"600", "2.0"}).ok());
  const Status bad_time = TraceFromCsv(times).status();
  EXPECT_EQ(bad_time.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_time.message().find("t_seconds"), std::string::npos);
}

// ---------------------------------------------------------- TraceStatsCache.

// Equal values keep their row order in Sorted(): a stable sort, so -0.0
// and +0.0 (which compare equal) land in a fixed, row-determined order.
TEST(TraceStatsCacheTest, SortedKeepsRowOrderOfEqualValues) {
  PerfTrace trace;
  ASSERT_TRUE(
      trace.SetSeries(ResourceDim::kCpu, {1.0, 0.0, -0.0, 0.5, -0.0, 0.0})
          .ok());
  const TraceStatsCache stats(trace);
  const std::vector<double>& sorted = stats.Sorted(ResourceDim::kCpu);
  ASSERT_EQ(sorted.size(), 6u);
  const bool negative[] = {false, true, true, false};  // rows 1, 2, 4, 5
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sorted[i], 0.0);
    EXPECT_EQ(std::signbit(sorted[i]), negative[i]) << "position " << i;
  }
  EXPECT_EQ(sorted[4], 0.5);
  EXPECT_EQ(sorted[5], 1.0);
}

// The cache borrows its trace: after a (sequential) mutation it rebuilds
// instead of serving the previous sorted state, and references handed out
// before the mutation read the fresh contents.
TEST(GenerationInvalidationTest, StatsCacheRebuildsAfterTraceMutation) {
  Rng rng(7);
  std::vector<double> cpu(64);
  for (double& v : cpu) v = std::floor(rng.Uniform(0.0, 16.0));
  PerfTrace trace;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  const TraceStatsCache stats(trace);
  const std::vector<double>& sorted = stats.Sorted(ResourceDim::kCpu);
  const double stale_max = stats.Max(ResourceDim::kCpu);
  const std::uint64_t built_at = trace.generation();

  // Replace the CPU series with a shifted copy; every order statistic moves.
  for (double& v : cpu) v += 100.0;
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, cpu).ok());
  ASSERT_GT(trace.generation(), built_at);

  EXPECT_EQ(stats.Max(ResourceDim::kCpu), stale_max + 100.0);
  EXPECT_EQ(stats.Min(ResourceDim::kCpu),
            *std::min_element(cpu.begin(), cpu.end()));
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_GE(sorted.front(), 100.0);
}

}  // namespace
}  // namespace doppler::telemetry
