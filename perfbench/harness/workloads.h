// The four benchmark workloads. Each runs untraced (end-to-end metrics)
// or traced (per-layer metrics) over inputs GenerateInputs wrote.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "inputs.h"
#include "measure.h"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;   ///< GenerateInputs output directory.
  std::string work;     ///< Scratch directory for reports.
  std::string doppler;  ///< The doppler CLI binary.
  Sizes sizes;
};

/// Runs ctx.workload and returns its verdict and metrics.
Result RunWorkload(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
