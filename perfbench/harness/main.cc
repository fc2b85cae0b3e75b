// Benchmark harness. Two commands:
//
//   perfbench gen --workload W --seed N --out DIR [--tiny] [--inject-bad K]
//       writes the workload's seeded inputs under DIR;
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --inputs DIR --work DIR --doppler BIN [--tiny]
//                 [--git-sha SHA] [--source-digest D]
//       runs the workload over those inputs and prints the host stamp,
//       human-readable lines and, last, one JSON result object.
//
// perfbench/run.py builds this binary and the doppler CLI and calls both
// commands; it is the entry point.
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "inputs.h"
#include "measure.h"
#include "util/kernels/kernels.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

bool ParseFlags(int argc, char** argv, std::map<std::string, std::string>* flags) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) return false;
    const std::string name(arg.substr(2));
    if (name == "tiny") {
      flags->emplace(name, "1");
    } else if (i + 1 < argc) {
      (*flags)[name] = argv[++i];
    } else {
      return false;
    }
  }
  return true;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& name, const std::string& fallback = "") {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

// Where and how the result was produced; results from different host
// contexts are not comparable.
std::string HostStamp(const std::map<std::string, std::string>& flags) {
  std::ostringstream stamp;
  stamp << "host: {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"kernel_isa\": \"" << doppler::kernels::ActiveKernels().name
        << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"compiler\": \"" << __VERSION__ << "\", \"git_sha\": \""
        << Get(flags, "git-sha", "unknown") << "\", \"source_digest\": \""
        << Get(flags, "source-digest", "unknown") << "\", \"seed\": "
        << Get(flags, "seed") << "}";
  return stamp.str();
}

int Usage() {
  std::cerr << "usage: perfbench gen|run --workload W --seed N ...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (argc < 2 || !ParseFlags(argc, argv, &flags)) return Usage();
  const std::string command = argv[1];
  // Library info logs would interleave with the result lines.
  doppler::SetMinLogLevel(doppler::LogLevel::kWarning);

  const perfbench::Sizes sizes = flags.count("tiny")
                                     ? perfbench::Sizes::Tiny()
                                     : perfbench::Sizes::Full();
  const std::uint64_t seed =
      std::strtoull(Get(flags, "seed", "1").c_str(), nullptr, 10);

  if (command == "gen") {
    perfbench::InputPlan plan;
    plan.dir = Get(flags, "out");
    plan.workload = Get(flags, "workload");
    plan.seed = seed;
    plan.sizes = sizes;
    plan.inject_bad = std::atoi(Get(flags, "inject-bad", "0").c_str());
    if (plan.dir.empty()) return Usage();
    const doppler::Status status = perfbench::GenerateInputs(plan);
    if (!status.ok()) {
      std::cerr << "input generation failed: " << status.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();

  perfbench::RunContext ctx;
  ctx.workload = Get(flags, "workload");
  ctx.seed = seed;
  ctx.seconds = std::atof(Get(flags, "seconds", "10").c_str());
  ctx.trace = Get(flags, "trace", "0") == "1";
  ctx.inputs = Get(flags, "inputs");
  ctx.work = Get(flags, "work");
  ctx.doppler = Get(flags, "doppler");
  ctx.sizes = sizes;
  if (ctx.inputs.empty() || ctx.work.empty() || ctx.doppler.empty() ||
      ctx.seconds <= 0.0) {
    return Usage();
  }
  std::cout << HostStamp(flags) << "\n"
            << "workload: " << ctx.workload
            << (ctx.trace ? " (traced)" : "") << "\n";
  const perfbench::Result result = perfbench::RunWorkload(ctx);
  result.Print();
  return 0;
}
