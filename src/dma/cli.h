#ifndef DOPPLER_DMA_CLI_H_
#define DOPPLER_DMA_CLI_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace doppler::dma {

/// Parsed command line: a command word plus --flag value pairs. The
/// doppler_cli binary is a thin main() around this, so the whole front-end
/// is unit-testable.
struct CliOptions {
  std::string command;
  std::map<std::string, std::string> flags;

  /// Flag value or default.
  std::string Get(const std::string& name, const std::string& fallback = "")
      const;
  /// True when the flag is present (with any value, including empty).
  bool Has(const std::string& name) const;
};

/// Parses `args` (without argv[0]). The first token is the command; the
/// rest must be --flag [value] pairs (a flag followed by another flag or
/// end of input is boolean). Fails on empty input, malformed tokens, or a
/// flag that a known command does not read (global flags are accepted by
/// every command).
StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

/// Executes a parsed command, writing human output to `out`. Returns the
/// process exit code (0 on success). Commands:
///
///   help                                     usage text
///   catalog  [--extended] [--out skus.csv]   dump the generated catalog
///   fit-profiles --deployment db|mi [--customers N] [--seed S]
///                [--out profiles.csv]        offline group-model fit
///   assess   --trace t.csv [--target db|mi] [--catalog skus.csv]
///            [--profiles p.csv] [--current-sku ID] [--confidence]
///   forecast --trace t.csv [--current-sku ID] [--months N]
///   tco      --trace t.csv                   on-prem vs cloud comparison
///   synth    --trace t.csv                   benchmark-mix synthesis
StatusOr<int> RunCli(const CliOptions& options, std::ostream& out);

/// Maps a non-OK Status to the CLI's typed exit code so scripted callers
/// can branch on the failure class: 3 invalid input, 4 not found, 5 failed
/// precondition (e.g. a strict-quality rejection), 6 out of range,
/// 7 unavailable, 8 internal. OK maps to 0.
int ExitCodeForStatus(const Status& status);

/// Convenience: parse + run. Usage errors print to `out` and return 2;
/// run errors return ExitCodeForStatus of the failure.
int CliMain(const std::vector<std::string>& args, std::ostream& out);

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_CLI_H_
