// Tests for the telemetry quality gate (src/quality/) and the
// deterministic fault-injection harness (src/sim/fault_injector.h): every
// defect class is detected, repaired-with-report or rejected-with-typed-
// Status, and the recommendation pipeline never aborts on corrupted input.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>

#include "dma/pipeline.h"
#include "dma/resource_report.h"
#include "private_temp_dir.h"
#include "quality/quality_gate.h"
#include "sim/fault_injector.h"
#include "telemetry/trace_io.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "workload/generator.h"
#include "workload/population.h"

namespace doppler::quality {
namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using sim::FaultKind;
using sim::FaultSpec;

// A clean trace table at the DMA cadence: t_seconds plus cpu and memory.
CsvTable CleanTable(std::size_t rows) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  for (std::size_t i = 0; i < rows; ++i) {
    (void)table.AddRow({std::to_string(i * telemetry::kDmaIntervalSeconds),
                        FormatDouble(1.0 + static_cast<double>(i % 5), 2),
                        "4.0"});
  }
  return table;
}

GateOptions Policy(QualityPolicy policy) {
  GateOptions options;
  options.policy = policy;
  return options;
}

bool HasDefect(const TraceQualityReport& report, DefectClass defect) {
  for (const QualityDefect& entry : report.defects) {
    if (entry.defect == defect) return true;
  }
  return false;
}

// ------------------------------------------------------------- Enum names.

TEST(QualityReportTest, PolicyNamesRoundTrip) {
  for (QualityPolicy policy :
       {QualityPolicy::kStrict, QualityPolicy::kRepair,
        QualityPolicy::kPermissive}) {
    QualityPolicy parsed;
    ASSERT_TRUE(ParseQualityPolicy(QualityPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  QualityPolicy unused;
  EXPECT_FALSE(ParseQualityPolicy("lenient", &unused));
}

TEST(QualityReportTest, DefectClassNamesDistinct) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumDefectClasses; ++i) {
    names.emplace_back(DefectClassName(static_cast<DefectClass>(i)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(QualityReportTest, AddMergesSameClassAndSummaryReadable) {
  TraceQualityReport report;
  report.Add(DefectClass::kGap, 3, true, "filled");
  report.Add(DefectClass::kGap, 2, true, "filled");
  report.Add(DefectClass::kNonFinite, 1, true, "interp");
  ASSERT_EQ(report.defects.size(), 2u);
  EXPECT_EQ(report.TotalDefects(), 6);
  EXPECT_EQ(report.RepairedDefects(), 6);
  EXPECT_FALSE(report.clean());
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("gap x5"), std::string::npos);
  EXPECT_NE(summary.find("non_finite x1"), std::string::npos);
}

TEST(QualityReportTest, MergeFromAccumulates) {
  TraceQualityReport a;
  a.Add(DefectClass::kNegative, 2, true, "clamped");
  a.samples_in = 10;
  TraceQualityReport b;
  b.Add(DefectClass::kNegative, 1, true, "clamped");
  b.samples_in = 5;
  b.degraded = true;
  b.missing_dims = {ResourceDim::kIops};
  b.confidence_penalty = 0.25;
  a.MergeFrom(b);
  EXPECT_EQ(a.TotalDefects(), 3);
  EXPECT_EQ(a.samples_in, 15);
  EXPECT_TRUE(a.degraded);
  EXPECT_DOUBLE_EQ(a.confidence_penalty, 0.25);
}

// ---------------------------------------------------------- CSV gate: clean.

TEST(GateTraceCsvTest, CleanTraceIsCleanUnderEveryPolicy) {
  const CsvTable table = CleanTable(24);
  for (QualityPolicy policy :
       {QualityPolicy::kStrict, QualityPolicy::kRepair,
        QualityPolicy::kPermissive}) {
    StatusOr<GatedTrace> gated = GateTraceCsv(table, Policy(policy));
    ASSERT_TRUE(gated.ok()) << QualityPolicyName(policy);
    EXPECT_TRUE(gated->report.clean());
    EXPECT_EQ(gated->trace.num_samples(), 24u);
    EXPECT_EQ(gated->trace.interval_seconds(),
              telemetry::kDmaIntervalSeconds);
    EXPECT_EQ(gated->report.samples_in, 24);
    EXPECT_EQ(gated->report.samples_out, 24);
  }
}

TEST(GateTraceCsvTest, NoResourceColumnsRejected) {
  CsvTable table({"t_seconds", "mystery"});
  (void)table.AddRow({"0", "1"});
  (void)table.AddRow({"600", "2"});
  EXPECT_EQ(GateTraceCsv(table, GateOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GateTraceCsvTest, TooFewSamplesRejected) {
  EXPECT_EQ(GateTraceCsv(CleanTable(1), GateOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- CSV gate: ordering.

TEST(GateTraceCsvTest, OutOfOrderRowsSortedAndRecorded) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"1200", "3.0", "4.0"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "2.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kOutOfOrder));
  EXPECT_EQ(repaired->trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 2.0, 3.0}));

  const Status strict =
      GateTraceCsv(table, Policy(QualityPolicy::kStrict)).status();
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.message().find("data row"), std::string::npos);

  // Sorting is structural, so even the record-only policy restores order.
  StatusOr<GatedTrace> permissive =
      GateTraceCsv(table, Policy(QualityPolicy::kPermissive));
  ASSERT_TRUE(permissive.ok());
  EXPECT_EQ(permissive->trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(GateTraceCsvTest, DuplicateTimestampsAveragedUnderRepair) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "2.0", "4.0"});
  (void)table.AddRow({"600", "4.0", "4.0"});
  (void)table.AddRow({"1200", "3.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kDuplicateTimestamp));
  ASSERT_EQ(repaired->trace.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(repaired->trace.Values(ResourceDim::kCpu)[1], 3.0);

  EXPECT_EQ(GateTraceCsv(table, Policy(QualityPolicy::kStrict))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Record-only keeps the first duplicate.
  StatusOr<GatedTrace> permissive =
      GateTraceCsv(table, Policy(QualityPolicy::kPermissive));
  ASSERT_TRUE(permissive.ok());
  EXPECT_DOUBLE_EQ(permissive->trace.Values(ResourceDim::kCpu)[1], 2.0);
}

// --------------------------------------------------------- CSV gate: gaps.

TEST(GateTraceCsvTest, GapInterpolatedSoEq1KeepsEveryTimePoint) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "2.0", "4.0"});
  (void)table.AddRow({"1200", "3.0", "4.0"});
  // Slots 3 and 4 missing (collector down for 20 minutes).
  (void)table.AddRow({"3000", "6.0", "4.0"});
  (void)table.AddRow({"3600", "7.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kGap));
  ASSERT_EQ(repaired->trace.num_samples(), 7u);
  // Linear bridge between 3.0 (slot 2) and 6.0 (slot 5).
  EXPECT_DOUBLE_EQ(repaired->trace.Values(ResourceDim::kCpu)[3], 4.0);
  EXPECT_DOUBLE_EQ(repaired->trace.Values(ResourceDim::kCpu)[4], 5.0);
  EXPECT_EQ(repaired->report.samples_out, 7);

  EXPECT_EQ(GateTraceCsv(table, Policy(QualityPolicy::kStrict))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // Record-only compresses time and records the gap instead of filling it.
  StatusOr<GatedTrace> permissive =
      GateTraceCsv(table, Policy(QualityPolicy::kPermissive));
  ASSERT_TRUE(permissive.ok());
  EXPECT_EQ(permissive->trace.num_samples(), 5u);
  EXPECT_TRUE(HasDefect(permissive->report, DefectClass::kGap));
}

TEST(GateTraceCsvTest, OutageLongerThanRepairLimitRejected) {
  GateOptions options = Policy(QualityPolicy::kRepair);
  options.max_gap_intervals = 4;
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "2.0", "4.0"});
  (void)table.AddRow({"1200", "3.0", "4.0"});
  (void)table.AddRow({"1800", "4.0", "4.0"});
  (void)table.AddRow({"12000", "5.0", "4.0"});  // Sixteen slots missing.
  const Status status = GateTraceCsv(table, options).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("rejected"), std::string::npos);
}

// -------------------------------------------------------- CSV gate: cells.

TEST(GateTraceCsvTest, NanInfAndNegativeCellsRepaired) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "nan", "4.0"});
  (void)table.AddRow({"1200", "inf", "-4.0"});
  (void)table.AddRow({"1800", "4.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kNonFinite));
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kNegative));
  const std::vector<double>& cpu = repaired->trace.Values(ResourceDim::kCpu);
  EXPECT_DOUBLE_EQ(cpu[1], 2.0);  // Interpolated between 1.0 and 4.0.
  EXPECT_DOUBLE_EQ(cpu[2], 3.0);
  EXPECT_DOUBLE_EQ(repaired->trace.Values(ResourceDim::kMemoryGb)[2], 0.0);

  const Status strict =
      GateTraceCsv(table, Policy(QualityPolicy::kStrict)).status();
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.message().find("data row 2"), std::string::npos);
}

TEST(GateTraceCsvTest, MalformedCellsRepairedWithRowContextUnderStrict) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "ca%fe", "4.0"});
  (void)table.AddRow({"1200", "3.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kMalformedCell));
  EXPECT_DOUBLE_EQ(repaired->trace.Values(ResourceDim::kCpu)[1], 2.0);

  const Status strict =
      GateTraceCsv(table, Policy(QualityPolicy::kStrict)).status();
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.message().find("data row 2, column 'cpu'"),
            std::string::npos);
}

TEST(GateTraceCsvTest, UnusableTimestampDropsRowOutsideStrict) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"oops", "9.0", "4.0"});
  (void)table.AddRow({"600", "2.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->trace.num_samples(), 2u);
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kMalformedCell));

  EXPECT_EQ(GateTraceCsv(table, Policy(QualityPolicy::kStrict))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GateTraceCsvTest, DeadCounterDroppedUnderRepairKeptUnderPermissive) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "0", "4.0"});
  (void)table.AddRow({"600", "0", "5.0"});
  (void)table.AddRow({"1200", "0", "6.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kDeadCounter));
  EXPECT_FALSE(repaired->trace.Has(ResourceDim::kCpu));
  EXPECT_TRUE(repaired->trace.Has(ResourceDim::kMemoryGb));

  StatusOr<GatedTrace> permissive =
      GateTraceCsv(table, Policy(QualityPolicy::kPermissive));
  ASSERT_TRUE(permissive.ok());
  EXPECT_TRUE(HasDefect(permissive->report, DefectClass::kDeadCounter));
  EXPECT_TRUE(permissive->trace.Has(ResourceDim::kCpu));
}

TEST(GateTraceCsvTest, CadenceDriftDetected) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  (void)table.AddRow({"0", "1.0", "4.0"});
  (void)table.AddRow({"600", "2.0", "4.0"});
  (void)table.AddRow({"1250", "3.0", "4.0"});  // 50s off the 600s grid.
  (void)table.AddRow({"1800", "4.0", "4.0"});

  StatusOr<GatedTrace> repaired =
      GateTraceCsv(table, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kCadenceDrift));
  // Snapped to the grid: four evenly spaced samples survive.
  EXPECT_EQ(repaired->trace.num_samples(), 4u);

  EXPECT_EQ(GateTraceCsv(table, Policy(QualityPolicy::kStrict))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A timestamp far beyond the grid is rejected under every policy: its slot
// does not fit, so it can neither be bridged nor counted as a gap, and it
// must not wrap onto an earlier slot and overwrite that sample.
TEST(GateTraceCsvTest, TimestampBeyondTheGridRejectedUnderEveryPolicy) {
  CsvTable table = CleanTable(300);
  (void)table.AddRow({"1e300", "77", "4.0"});
  for (QualityPolicy policy :
       {QualityPolicy::kStrict, QualityPolicy::kRepair,
        QualityPolicy::kPermissive}) {
    SCOPED_TRACE(QualityPolicyName(policy));
    const Status status = GateTraceCsv(table, Policy(policy)).status();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(status.message(),
              "timestamp 1e+300 lies beyond any cadence grid; trace "
              "rejected rather than invented");
  }

  // Rows spaced further apart than any int64 cadence: the same.
  CsvTable sparse({"t_seconds", "cpu", "memory"});
  for (const char* t : {"0", "1e19", "2e19"}) {
    (void)sparse.AddRow({t, "1.0", "4.0"});
  }
  EXPECT_EQ(GateTraceCsv(sparse, Policy(QualityPolicy::kRepair))
                .status()
                .message(),
            "timestamp 2e+19 lies beyond any cadence grid; trace rejected "
            "rather than invented");

  // A slot that fits but lies past the repair limit is the usual gap.
  CsvTable far = CleanTable(10);
  (void)far.AddRow({"6e11", "1.0", "4.0"});
  const Status gap = GateTraceCsv(far, Policy(QualityPolicy::kRepair)).status();
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(gap.message().find("exceeds the 48-sample repair limit"),
            std::string::npos);
}

// ------------------------------------------ CSV gate: the input contract.
//
// What each kind of cell text means to the gate: the defect class, the
// value the series carries under repair and under permissive (bitwise),
// and the strict-mode message. These pin the number rule itself, so a
// reader built on another parser cannot pass them by accident.

constexpr std::uint64_t kPositiveNanBits = 0x7ff8000000000000ULL;
constexpr std::uint64_t kNegativeNanBits = 0xfff8000000000000ULL;
constexpr std::uint64_t kPositiveInfBits = 0x7ff0000000000000ULL;
constexpr std::uint64_t kNegativeInfBits = 0xfff0000000000000ULL;

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

struct CellPin {
  std::string cell;
  /// Empty when the cell is an ok number.
  std::string defect;
  std::uint64_t repaired_bits;
  std::uint64_t permissive_bits;
  /// Empty when strict accepts the cell.
  std::string strict_message;
};

std::vector<CellPin> CellPins() {
  const std::uint64_t interpolated = Bits(3.0);  // Between 2.0 and 4.0.
  return {
      {"  1.5", "", Bits(1.5), Bits(1.5), ""},
      {"+1.5", "", Bits(1.5), Bits(1.5), ""},
      {"0x1p3", "", Bits(8.0), Bits(8.0), ""},
      {"1e400", "non_finite", interpolated, kPositiveInfBits,
       "non-finite value at data row 3, column 'cpu'"},
      {"-1e400", "non_finite", interpolated, kNegativeInfBits,
       "non-finite value at data row 3, column 'cpu'"},
      {"1e-400", "", Bits(0.0), Bits(0.0), ""},
      {"nan", "non_finite", interpolated, kPositiveNanBits,
       "non-finite value at data row 3, column 'cpu'"},
      {"-nan", "non_finite", interpolated, kNegativeNanBits,
       "non-finite value at data row 3, column 'cpu'"},
      {"inf", "non_finite", interpolated, kPositiveInfBits,
       "non-finite value at data row 3, column 'cpu'"},
      {"", "malformed_cell", interpolated, kPositiveNanBits,
       "not a number at data row 3, column 'cpu': ''"},
      // A NUL ends the cell: what follows it is never read.
      {std::string("1.5\0junk", 8), "", Bits(1.5), Bits(1.5), ""},
  };
}

// Six clean rows at the DMA cadence (cpu 1, 2, ..., 6) with the cpu cell
// of data row 3 replaced by `cell`.
CsvTable TableWithCpuCell(const std::string& cell) {
  CsvTable table({"t_seconds", "cpu", "memory"});
  for (int i = 0; i < 6; ++i) {
    (void)table.AddRow({std::to_string(i * telemetry::kDmaIntervalSeconds),
                        i == 2 ? cell : FormatDouble(1.0 + i, 1), "4.0"});
  }
  return table;
}

TEST(GateTraceCsvTest, CellTextPinsClassValueAndStrictMessage) {
  for (const CellPin& pin : CellPins()) {
    SCOPED_TRACE("cell '" + pin.cell + "'");
    const CsvTable table = TableWithCpuCell(pin.cell);

    StatusOr<GatedTrace> repaired =
        GateTraceCsv(table, Policy(QualityPolicy::kRepair));
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    if (pin.defect.empty()) {
      EXPECT_TRUE(repaired->report.clean()) << repaired->report.Summary();
    } else {
      ASSERT_EQ(repaired->report.defects.size(), 1u);
      EXPECT_EQ(DefectClassName(repaired->report.defects[0].defect),
                pin.defect);
      EXPECT_EQ(repaired->report.defects[0].count, 1);
      EXPECT_TRUE(repaired->report.defects[0].repaired);
    }
    ASSERT_EQ(repaired->trace.num_samples(), 6u);
    EXPECT_EQ(Bits(repaired->trace.Values(ResourceDim::kCpu)[2]),
              pin.repaired_bits);

    StatusOr<GatedTrace> permissive =
        GateTraceCsv(table, Policy(QualityPolicy::kPermissive));
    ASSERT_TRUE(permissive.ok()) << permissive.status().ToString();
    EXPECT_EQ(Bits(permissive->trace.Values(ResourceDim::kCpu)[2]),
              pin.permissive_bits);

    const Status strict =
        GateTraceCsv(table, Policy(QualityPolicy::kStrict)).status();
    if (pin.strict_message.empty()) {
      EXPECT_TRUE(strict.ok()) << strict.ToString();
    } else {
      EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(strict.message(), pin.strict_message);
    }
  }
}

// The gated file reader: a ragged row fails the whole file, a blank last
// line is no row at all.
TEST(GateTraceCsvTest, FileShapePins) {
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/shape.csv";
  const std::string clean = TableWithCpuCell("3.0").ToString();

  ASSERT_TRUE(WriteTextFileAtomic(path, clean + "\n").ok());
  StatusOr<GatedTrace> blank_last =
      ReadTraceFileGated(path, Policy(QualityPolicy::kStrict));
  ASSERT_TRUE(blank_last.ok()) << blank_last.status().ToString();
  EXPECT_EQ(blank_last->report.samples_in, 6);
  EXPECT_EQ(blank_last->trace.num_samples(), 6u);

  std::string ragged = clean;
  ragged.replace(ragged.find("1200,3.0,4.0"), 12, "1200,3.0");
  ASSERT_TRUE(WriteTextFileAtomic(path, ragged).ok());
  for (QualityPolicy policy :
       {QualityPolicy::kStrict, QualityPolicy::kRepair,
        QualityPolicy::kPermissive}) {
    const Status status = ReadTraceFileGated(path, Policy(policy)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "row width 2 != header width 3");
  }
}

// ----------------------------------------------------- Degraded mode.

TEST(GateTraceCsvTest, MissingExpectedDimensionDegradesAssessment) {
  GateOptions options = Policy(QualityPolicy::kRepair);
  options.expected_dims = {ResourceDim::kCpu, ResourceDim::kMemoryGb,
                           ResourceDim::kIops, ResourceDim::kLogRateMbps};
  StatusOr<GatedTrace> gated = GateTraceCsv(CleanTable(12), options);
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated->report.degraded);
  EXPECT_TRUE(HasDefect(gated->report, DefectClass::kMissingDimension));
  EXPECT_EQ(gated->report.missing_dims.size(), 2u);
  EXPECT_DOUBLE_EQ(gated->report.confidence_penalty, 0.5);
  EXPECT_NE(gated->report.Summary().find("degraded"), std::string::npos);

  options.policy = QualityPolicy::kStrict;
  EXPECT_EQ(GateTraceCsv(CleanTable(12), options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AssessDegradedModeTest, PenaltyIsMissingOverExpected) {
  TraceQualityReport report;
  AssessDegradedMode({ResourceDim::kCpu},
                     {ResourceDim::kCpu, ResourceDim::kIops}, &report);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.missing_dims, (std::vector<ResourceDim>{ResourceDim::kIops}));
  EXPECT_DOUBLE_EQ(report.confidence_penalty, 0.5);

  TraceQualityReport complete;
  AssessDegradedMode({ResourceDim::kCpu}, {ResourceDim::kCpu}, &complete);
  EXPECT_FALSE(complete.degraded);
  EXPECT_DOUBLE_EQ(complete.confidence_penalty, 0.0);
}

// ------------------------------------------------ Aligned-trace gate.

TEST(GateTraceTest, RepairsCellsOnAlignedTrace) {
  telemetry::PerfTrace trace(600);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1.0, nan, 3.0, -2.0}).ok());
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kMemoryGb, {0, 0, 0, 0}).ok());

  StatusOr<GatedTrace> repaired =
      GateTrace(trace, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(repaired.ok());
  const std::vector<double>& cpu = repaired->trace.Values(ResourceDim::kCpu);
  EXPECT_DOUBLE_EQ(cpu[1], 2.0);
  EXPECT_DOUBLE_EQ(cpu[3], 0.0);
  EXPECT_FALSE(repaired->trace.Has(ResourceDim::kMemoryGb));  // Dead.
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kNonFinite));
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kNegative));
  EXPECT_TRUE(HasDefect(repaired->report, DefectClass::kDeadCounter));

  const Status strict =
      GateTrace(trace, Policy(QualityPolicy::kStrict)).status();
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
}

TEST(GateTraceTest, CleanAlignedTracePassesUntouched) {
  telemetry::PerfTrace trace(600);
  ASSERT_TRUE(trace.SetSeries(ResourceDim::kCpu, {1.0, 2.0, 3.0}).ok());
  StatusOr<GatedTrace> gated = GateTrace(trace, Policy(QualityPolicy::kStrict));
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated->report.clean());
  EXPECT_EQ(gated->trace.Values(ResourceDim::kCpu),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

// ------------------------------------------------------ Fault injector.

TEST(FaultInjectorTest, SameSeedSameCorruption) {
  const CsvTable table = CleanTable(48);
  for (int kind = 0; kind < sim::kNumFaultKinds; ++kind) {
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(kind);
    spec.magnitude = 0.2;
    Rng a(99);
    Rng b(99);
    StatusOr<CsvTable> first = sim::InjectFault(table, spec, &a);
    StatusOr<CsvTable> second = sim::InjectFault(table, spec, &b);
    ASSERT_TRUE(first.ok()) << sim::FaultKindName(spec.kind);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->ToString(), second->ToString())
        << sim::FaultKindName(spec.kind);
    EXPECT_NE(first->ToString(), table.ToString())
        << sim::FaultKindName(spec.kind) << " corrupted nothing";
  }
}

TEST(FaultInjectorTest, RecipesCompose) {
  const CsvTable table = CleanTable(48);
  Rng rng(7);
  StatusOr<CsvTable> corrupted = sim::ApplyFaults(
      table,
      {{FaultKind::kDropWindow, 0.1, ""},
       {FaultKind::kNanBurst, 0.1, "cpu"},
       {FaultKind::kDuplicate, 0.05, ""}},
      &rng);
  ASSERT_TRUE(corrupted.ok());
  // 48 - 4 dropped + 2 duplicated (at least one of each touched).
  EXPECT_NE(corrupted->num_rows(), table.num_rows());
  EXPECT_NE(corrupted->ToString().find("nan"), std::string::npos);
}

TEST(FaultInjectorTest, CorruptBytesDeterministicAndBounded) {
  const std::string text = CleanTable(24).ToString();
  Rng a(3);
  Rng b(3);
  const std::string first = sim::CorruptBytes(text, 10, &a);
  EXPECT_EQ(first, sim::CorruptBytes(text, 10, &b));
  EXPECT_EQ(first.size(), text.size());
  int changed = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (first[i] != text[i]) ++changed;
  }
  EXPECT_GT(changed, 0);
  EXPECT_LE(changed, 10);
}

TEST(FaultInjectorTest, EmptyTableRejectedNotCrashed) {
  Rng rng(1);
  FaultSpec spec;
  spec.kind = FaultKind::kDuplicate;
  EXPECT_FALSE(
      sim::InjectFault(CsvTable({"t_seconds", "cpu"}), spec, &rng).ok());
}

// --------------------------------------------- Robustness suite (pipeline).

class RobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog::SkuCatalog catalog = catalog::BuildAzureLikeCatalog();
    const catalog::DefaultPricing pricing;
    const core::NonParametricEstimator estimator;
    StatusOr<core::GroupModel> model = dma::FitGroupModelOffline(
        catalog, pricing, estimator, Deployment::kSqlDb, 40, 7);
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

  // Two days of a realistic workload at the DMA cadence, as CSV.
  static CsvTable RealisticTable(std::uint64_t seed) {
    Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.name = "robustness";
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::DailyPeriodic(0.8, 0.5);
    spec.dims[ResourceDim::kMemoryGb] =
        workload::DimensionSpec::Steady(3.0, 0.05);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(200.0, 120.0);
    StatusOr<telemetry::PerfTrace> trace = workload::GenerateTrace(
        spec, 2.0, telemetry::kDmaIntervalSeconds, &rng);
    EXPECT_TRUE(trace.ok());
    return telemetry::TraceToCsv(*trace);
  }

  static dma::SkuRecommendationPipeline* pipeline_;
};

dma::SkuRecommendationPipeline* RobustnessFixture::pipeline_ = nullptr;

// Every fault class either yields a repaired trace whose report names the
// damage, or a typed non-OK Status — never a crash, never a silent pass.
TEST_F(RobustnessFixture, PipelineNeverAbortsOnAnyFaultClass) {
  const CsvTable clean = RealisticTable(21);
  int assessed = 0;
  for (int kind = 0; kind < sim::kNumFaultKinds; ++kind) {
    SCOPED_TRACE(sim::FaultKindName(static_cast<FaultKind>(kind)));
    Rng rng(1000 + static_cast<std::uint64_t>(kind));
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(kind);
    spec.magnitude = 0.1;
    StatusOr<CsvTable> corrupted = sim::InjectFault(clean, spec, &rng);
    ASSERT_TRUE(corrupted.ok());

    GateOptions options = Policy(QualityPolicy::kRepair);
    options.expected_dims = {ResourceDim::kCpu, ResourceDim::kMemoryGb,
                             ResourceDim::kIops};
    StatusOr<GatedTrace> gated = GateTraceCsv(*corrupted, options);
    if (!gated.ok()) {
      // Rejection is allowed, but only with a typed Status.
      EXPECT_NE(gated.status().code(), StatusCode::kOk);
      EXPECT_FALSE(gated.status().message().empty());
      continue;
    }
    EXPECT_TRUE(gated->report.TotalDefects() > 0 || gated->report.degraded)
        << "corruption went undetected";

    dma::AssessmentRequest request;
    request.customer_id = sim::FaultKindName(spec.kind);
    request.target = Deployment::kSqlDb;
    request.database_traces = {gated->trace};
    request.ingest_quality = gated->report;
    StatusOr<dma::AssessmentOutcome> outcome = pipeline_->Assess(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    // The dirt trail survives into the outcome and its JSON export.
    EXPECT_TRUE(outcome->quality.TotalDefects() > 0 ||
                outcome->quality.degraded);
    const std::string json = dma::RenderAssessmentJson(*outcome);
    EXPECT_NE(json.find("\"quality\""), std::string::npos);
    ++assessed;
  }
  // Most single faults at 10% magnitude are repairable end to end.
  EXPECT_GE(assessed, 6);
}

TEST_F(RobustnessFixture, StrictPolicyRejectsEveryFaultClassWithTypedStatus) {
  const CsvTable clean = RealisticTable(22);
  for (int kind = 0; kind < sim::kNumFaultKinds; ++kind) {
    SCOPED_TRACE(sim::FaultKindName(static_cast<FaultKind>(kind)));
    Rng rng(2000 + static_cast<std::uint64_t>(kind));
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(kind);
    spec.magnitude = 0.15;
    StatusOr<CsvTable> corrupted = sim::InjectFault(clean, spec, &rng);
    ASSERT_TRUE(corrupted.ok());
    GateOptions options = Policy(QualityPolicy::kStrict);
    options.expected_dims = {ResourceDim::kCpu, ResourceDim::kMemoryGb,
                             ResourceDim::kIops};
    const Status status = GateTraceCsv(*corrupted, options).status();
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kFailedPrecondition)
        << status.ToString();
  }
}

TEST_F(RobustnessFixture, DegradedAssessmentFlagsMissingDimension) {
  const CsvTable clean = RealisticTable(23);
  Rng rng(5);
  FaultSpec spec;
  spec.kind = FaultKind::kColumnDrop;
  spec.column = "iops";
  StatusOr<CsvTable> corrupted = sim::InjectFault(clean, spec, &rng);
  ASSERT_TRUE(corrupted.ok());
  StatusOr<GatedTrace> gated =
      GateTraceCsv(*corrupted, Policy(QualityPolicy::kRepair));
  ASSERT_TRUE(gated.ok());

  dma::AssessmentRequest request;
  request.customer_id = "degraded";
  request.target = Deployment::kSqlDb;
  request.database_traces = {gated->trace};
  request.ingest_quality = gated->report;
  StatusOr<dma::AssessmentOutcome> outcome = pipeline_->Assess(request);
  ASSERT_TRUE(outcome.ok());
  // The DB profiling dims include iops, so the outcome must be degraded.
  EXPECT_TRUE(outcome->quality.degraded);
  EXPECT_TRUE(outcome->elastic.degraded);
  EXPECT_NE(std::find(outcome->elastic.missing_profile_dims.begin(),
                      outcome->elastic.missing_profile_dims.end(),
                      ResourceDim::kIops),
            outcome->elastic.missing_profile_dims.end());
  EXPECT_NE(outcome->elastic.rationale.find("degraded"), std::string::npos);
  const std::string json = dma::RenderAssessmentJson(*outcome);
  EXPECT_NE(json.find("missing_dims"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
}

// --------------------------------------------------- Fuzz (byte mutation).

TEST_F(RobustnessFixture, SeededByteMutationsNeverAbortTheReader) {
  const std::string clean = RealisticTable(24).ToString();
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/fuzzed_trace.csv";
  int readable = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::string mutated = sim::CorruptBytes(clean, 8, &rng);
    {
      std::ofstream out(path, std::ios::trunc);
      out << mutated;
    }
    // The plain reader must fail typed or succeed — never crash.
    StatusOr<telemetry::PerfTrace> plain = telemetry::ReadTraceFile(path);
    if (!plain.ok()) {
      EXPECT_FALSE(plain.status().message().empty());
    }

    // The gated reader repairs what it can; when it returns a trace, the
    // pipeline must complete on it.
    StatusOr<GatedTrace> gated =
        ReadTraceFileGated(path, Policy(QualityPolicy::kRepair));
    if (!gated.ok()) continue;
    ++readable;
    dma::AssessmentRequest request;
    request.customer_id = "fuzz";
    request.target = Deployment::kSqlDb;
    request.database_traces = {gated->trace};
    request.ingest_quality = gated->report;
    StatusOr<dma::AssessmentOutcome> outcome = pipeline_->Assess(request);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  // The alphabet includes ',' and '\n', so many mutants shear apart and
  // are rejected at parse; 8 flips in ~7KB leave a fair share readable.
  EXPECT_GT(readable, 0);
}

}  // namespace
}  // namespace doppler::quality
