// Seeded input generator: every trace CSV, spool batch and --profiles
// file a workload reads is written here from the seed alone, so the same
// seed always yields byte-identical inputs.
#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// The workloads, in the order BENCHMARK.json lists them.
inline const std::vector<std::string> kWorkloads = {
    "oneshot_cold", "estate_batch", "serve_open", "monitor_drift"};

/// Input sizes of one workload. `Tiny` is the self-test scale.
struct Sizes {
  int oneshot_traces = 8;      ///< 7- and 30-day traces, alternating.
  int estate_traces = 1000;    ///< 7/14/30-day mix, some dirty.
  double estate_dirty = 0.10;  ///< Share of repairable dirty traces.
  int serve_traces = 200;      ///< 7-day request pool.
  int monitor_customers = 40;  ///< Each streams monitor_batches days.
  int monitor_batches = 30;
  double monitor_shifted = 0.20;  ///< Share with a planned mean shift.

  static Sizes Full() { return Sizes(); }
  static Sizes Tiny();
};

struct InputPlan {
  std::string dir;  ///< Output directory (created; must be empty).
  std::string workload;
  std::uint64_t seed = 1;
  Sizes sizes;
  /// Unparseable trace files added to the workload's inputs (self-test).
  int inject_bad = 0;
};

/// Writes the workload's inputs under plan.dir:
///   profiles.csv              group model fitted from the seed
///   minimal/minimal.csv       one short trace (spawned workloads' set-up)
///   <workload>/*.csv          traces, requests or spool batches
///   monitor_shifted.txt       customers given a mean shift (monitor only)
doppler::Status GenerateInputs(const InputPlan& plan);

std::string ProfilesPath(const std::string& dir);
std::string MinimalDir(const std::string& dir);
std::string WorkloadDir(const std::string& dir, const std::string& workload);
std::string ShiftedListPath(const std::string& dir);

/// The *.csv files directly under `dir`, sorted by name.
std::vector<std::string> ListCsv(const std::string& dir);

/// Monitor batch files carry the customer id before the first '.'.
inline constexpr int kMonitorBatchRows = 144;  // one day at 10 minutes
/// Factor applied to the CPU column of shifted customers' later batches.
inline constexpr double kMonitorShiftFactor = 2.5;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
