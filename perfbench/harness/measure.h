// Measurement primitives of the benchmark harness: clocks, sample
// summaries, child processes with their peak memory, the per-layer totals
// of the traced run, and the result line.
#ifndef PERFBENCH_HARNESS_MEASURE_H_
#define PERFBENCH_HARNESS_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double Now();

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Samples per tail window (see Summarize) unless a workload picks its own.
inline constexpr std::size_t kTailWindow = 1200;

/// A latency distribution reduced to the two numbers the benchmark
/// reports: the median and the highest percentile that still has at
/// least ten samples beyond it. Below 21 samples no percentile above the
/// median qualifies, so the tail is the maximum. Over many samples that
/// percentile would chase ever rarer host hiccups as a run grows, so from
/// two windows' worth on the tail is taken per window of `window`
/// consecutive samples (at p99.17 for 1,200) and reported as the median
/// over the complete windows.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  /// Percentile the tail sits at (100 = the maximum).
  double tail_percentile = 0.0;
  /// Windows the tail is the median of (1 = the whole sample).
  std::size_t windows = 1;
  std::size_t window = 0;  ///< Samples per window.
};
Summary Summarize(const std::vector<double>& samples,
                  std::size_t window = kTailWindow);

/// One finished child process.
struct ChildRun {
  int exit_code = -1;  ///< -1 when the child died on a signal.
  double seconds = 0.0;  ///< Spawn until reaped.
  double peak_rss_mb = 0.0;
};

/// Runs `argv` with stdout to `stdout_path` and stderr discarded, waits
/// for it, and returns its exit code, wall time and peak resident memory.
/// A child that cannot be spawned reports exit code 127.
ChildRun RunChild(const std::vector<std::string>& argv,
                  const std::string& stdout_path);

/// Peak resident memory of this process so far, in MB.
double SelfPeakRssMb();

/// Per-layer totals of a traced run: time and calls per layer, and plain
/// counts. Layer times come from spans (AddSpans) or from timings measured
/// elsewhere, such as the pipeline's own stage timings (Add).
struct Layers {
  struct Layer {
    double seconds = 0.0;
    double calls = 0.0;
    bool top_level = false;  ///< Has depth-0 spans on the main thread.
  };
  std::map<std::string, Layer> time;
  std::map<std::string, double> counts;
  /// Seconds covered by depth-0 spans of the main thread.
  double top_level_seconds = 0.0;

  void Add(const std::string& name, double seconds, double calls = 1.0);
  void Count(const std::string& name, double value) { counts[name] += value; }
  double CountOf(const std::string& name) const;
  /// Folds in the spans of one process. Its main thread is the one that
  /// recorded the earliest span. A `ppm.curve_build` at depth 0 is outside
  /// any assessment, which only the offline group-model fit does; it is
  /// kept apart as `fit.curve_build`.
  void AddSpans(const std::vector<doppler::obs::SpanRecord>& spans);
};

/// The spans of a Chrome trace written by obs::WriteChromeTrace (the
/// CLI's --trace-out).
std::vector<doppler::obs::SpanRecord> ReadChromeTrace(const std::string& path);

/// The whole file at `path` ("" when unreadable).
std::string ReadFile(const std::string& path);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's verdict for one run. Print() writes the human-readable
/// lines first and the machine-readable JSON object last.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Human lines printed before the JSON.

  void Fail(const std::string& why);  ///< Marks the run incorrect.
  void Print() const;
};

/// JSON number text with full precision.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_MEASURE_H_
