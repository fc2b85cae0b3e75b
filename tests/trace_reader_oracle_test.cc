// Differential fuzz of the trace reader: seeded byte and line mutations of
// realistic trace files, each read by the columnar reader
// (ReadTraceFileGated under every policy, GateTraceCsv, ReadTraceFile) and
// by the reference copy of the row-at-a-time reader it replaced
// (reference_trace_reader.h). Both must return the same status code and
// message, the same series bit for bit and the same quality report.
//
// One run covers a fixed block of seeds. --gtest_repeat=N covers N
// consecutive blocks, which is how tools/check.sh runs it under the
// sanitizers with a larger budget.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "private_temp_dir.h"
#include "quality/quality_gate.h"
#include "reference_trace_reader.h"
#include "telemetry/trace_io.h"
#include "util/file_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace doppler {
namespace {

using catalog::ResourceDim;
using quality::GatedTrace;
using quality::GateOptions;
using quality::QualityPolicy;
using quality::TraceQualityReport;
using telemetry::PerfTrace;

constexpr std::uint64_t kFirstSeed = 20261020;
constexpr int kCasesPerRun = 1500;

// ---------------------------------------------------------------- Inputs.

// A trace file as collectors write it: a timestamp column (not always
// first), a few known counters, sometimes an unknown column, values in
// several spellings, sometimes CRLF line ends or no final newline.
std::string RealisticTrace(Rng* rng) {
  std::vector<std::string> header = {"cpu", "memory", "iops"};
  if (rng->Uniform() < 0.4) header.push_back("log_rate");
  if (rng->Uniform() < 0.3) header.push_back("mystery");
  header.insert(header.begin() + rng->UniformInt(header.size() + 1),
                "t_seconds");
  const std::size_t rows = 2 + rng->UniformInt(40);
  const int interval = rng->Uniform() < 0.8 ? 600 : 60 * (1 + rng->UniformInt(20));
  std::vector<std::string> lines = {Join(header, ",")};
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (const std::string& column : header) {
      if (column == "t_seconds") {
        const double jitter = rng->Uniform() < 0.1 ? rng->Uniform(-40, 40) : 0;
        row.push_back(FormatDouble(static_cast<double>(r) * interval + jitter,
                                   jitter == 0 ? 0 : 1));
        continue;
      }
      const double value = rng->Uniform() < 0.05 ? 0.0 : rng->LogNormal(1.0, 1.5);
      switch (rng->UniformInt(4)) {
        case 0:
          row.push_back(FormatDouble(value, 0));
          break;
        case 1:
          row.push_back(FormatDouble(value, 2));
          break;
        case 2: {
          std::ostringstream out;
          out << std::scientific << value;
          row.push_back(out.str());
          break;
        }
        default:
          row.push_back(FormatDouble(value, 6));
          break;
      }
    }
    lines.push_back(Join(row, ","));
  }
  const std::string end = rng->Uniform() < 0.2 ? "\r\n" : "\n";
  std::string text = Join(lines, end);
  if (rng->Uniform() < 0.8) text += end;
  return text;
}

// Mutates `text` in place: byte replacements, insertions and deletions
// drawn from the characters that change how a cell or a line reads, plus
// whole-line swaps, duplicates and deletions (out-of-order rows, duplicate
// timestamps, gaps).
void Mutate(std::string* text, Rng* rng) {
  static const std::string kAlphabet = std::string(",\n\r\0+xe-.", 10) +
                                       "0123456789 \tpfinaE";
  const int edits = 1 + static_cast<int>(rng->UniformInt(6));
  for (int e = 0; e < edits && !text->empty(); ++e) {
    const std::size_t at = rng->UniformInt(text->size());
    const char c = kAlphabet[rng->UniformInt(kAlphabet.size())];
    switch (rng->UniformInt(6)) {
      case 0:
        (*text)[at] = c;
        break;
      case 1:
        text->insert(text->begin() + at, c);
        break;
      case 2:
        text->erase(at, 1);
        break;
      default: {
        std::vector<std::string> lines = Split(*text, '\n');
        if (lines.size() < 3) break;
        const std::size_t a = 1 + rng->UniformInt(lines.size() - 1);
        const std::size_t b = 1 + rng->UniformInt(lines.size() - 1);
        const std::uint64_t op = rng->UniformInt(3);
        if (op == 0) std::swap(lines[a], lines[b]);
        if (op == 1) lines.insert(lines.begin() + a, lines[b]);
        if (op == 2) lines.erase(lines.begin() + a);
        *text = Join(lines, "\n");
        break;
      }
    }
  }
}

// -------------------------------------------------------------- Compare.

std::string Bits(double value) {
  return std::to_string(std::bit_cast<std::uint64_t>(value));
}

// Empty when `a` and `b` hold the same status, or the same trace bit for
// bit; otherwise what differs.
std::string TraceDiff(const StatusOr<PerfTrace>& a,
                      const StatusOr<PerfTrace>& b) {
  if (a.status().code() != b.status().code() ||
      a.status().message() != b.status().message()) {
    return "status '" + a.status().ToString() + "' vs '" +
           b.status().ToString() + "'";
  }
  if (!a.ok()) return "";
  if (a->interval_seconds() != b->interval_seconds()) return "interval";
  if (a->id() != b->id()) return "id";
  if (a->PresentDims() != b->PresentDims()) return "dims";
  for (ResourceDim dim : a->PresentDims()) {
    const std::vector<double>& x = a->Values(dim);
    const std::vector<double>& y = b->Values(dim);
    if (x.size() != y.size()) return "length";
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (Bits(x[i]) != Bits(y[i])) {
        return std::string(catalog::ResourceDimName(dim)) + "[" +
               std::to_string(i) + "] " + Bits(x[i]) + " vs " + Bits(y[i]);
      }
    }
  }
  return "";
}

std::string Describe(const TraceQualityReport& report) {
  std::string out = std::string(quality::QualityPolicyName(report.policy)) +
                    " in=" + std::to_string(report.samples_in) +
                    " out=" + std::to_string(report.samples_out) +
                    " degraded=" + std::to_string(report.degraded) +
                    " penalty=" + Bits(report.confidence_penalty);
  for (const quality::QualityDefect& defect : report.defects) {
    out += " [" + std::string(quality::DefectClassName(defect.defect)) + " x" +
           std::to_string(defect.count) + " " +
           std::to_string(defect.repaired) + " " + defect.detail + "]";
  }
  for (ResourceDim dim : report.missing_dims) {
    out += std::string(" missing:") + catalog::ResourceDimName(dim);
  }
  for (ResourceDim dim : report.assessed_dims) {
    out += std::string(" assessed:") + catalog::ResourceDimName(dim);
  }
  return out;
}

std::string GatedDiff(const StatusOr<GatedTrace>& a,
                      const StatusOr<GatedTrace>& b) {
  const std::string trace =
      TraceDiff(a.ok() ? StatusOr<PerfTrace>(a->trace)
                       : StatusOr<PerfTrace>(a.status()),
                b.ok() ? StatusOr<PerfTrace>(b->trace)
                       : StatusOr<PerfTrace>(b.status()));
  if (!trace.empty() || !a.ok()) return trace;
  const std::string x = Describe(a->report);
  const std::string y = Describe(b->report);
  return x == y ? "" : "report '" + x + "' vs '" + y + "'";
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\0') {
      out += "\\0";
    } else {
      out += c;
    }
  }
  return out;
}

// ------------------------------------------------------------------ Run.

TEST(TraceReaderOracleTest, ColumnarReaderMatchesReferenceOnFuzzedTraces) {
  static int run = 0;  // Advances under --gtest_repeat.
  const std::uint64_t first_seed =
      kFirstSeed + static_cast<std::uint64_t>(run++) * kCasesPerRun;
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/fuzzed.csv";

  int gated_ok = 0;
  int plain_ok = 0;
  for (std::uint64_t seed = first_seed; seed < first_seed + kCasesPerRun;
       ++seed) {
    Rng rng(seed);
    std::string text = RealisticTrace(&rng);
    if (rng.Uniform() < 0.9) Mutate(&text, &rng);
    ASSERT_TRUE(WriteTextFileAtomic(path, text).ok());
    SCOPED_TRACE("seed " + std::to_string(seed) + ", input:\n" +
                 Escaped(text));

    GateOptions options;
    if (rng.Uniform() < 0.3) {
      options.expected_dims = {ResourceDim::kCpu, ResourceDim::kMemoryGb,
                               ResourceDim::kIops, ResourceDim::kLogRateMbps};
    }
    if (rng.Uniform() < 0.2) options.max_gap_intervals = 2;
    const StatusOr<CsvTable> table = CsvTable::Parse(text);
    for (QualityPolicy policy :
         {QualityPolicy::kStrict, QualityPolicy::kRepair,
          QualityPolicy::kPermissive}) {
      options.policy = policy;
      const StatusOr<GatedTrace> expected =
          reference::GateTraceText(text, options);
      const StatusOr<GatedTrace> read =
          quality::ReadTraceFileGated(path, options);
      ASSERT_EQ(GatedDiff(read, expected), "")
          << "ReadTraceFileGated, " << quality::QualityPolicyName(policy);
      gated_ok += read.ok();
      if (table.ok()) {
        ASSERT_EQ(GatedDiff(quality::GateTraceCsv(*table, options), expected),
                  "")
            << "GateTraceCsv, " << quality::QualityPolicyName(policy);
      }
    }
    const StatusOr<PerfTrace> plain = telemetry::ReadTraceFile(path);
    ASSERT_EQ(TraceDiff(plain, reference::ReadTraceText(text)), "")
        << "ReadTraceFile";
    plain_ok += plain.ok();
  }
  // The mutations leave a fair share readable, so values and reports are
  // compared, not only failures.
  EXPECT_GT(gated_ok, kCasesPerRun / 2);
  EXPECT_GT(plain_ok, kCasesPerRun / 10);
}

}  // namespace
}  // namespace doppler
