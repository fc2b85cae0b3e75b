#include "core/confidence.h"

#include <algorithm>

#include "obs/metrics.h"
#include "stats/bootstrap.h"

namespace doppler::core {

StatusOr<ConfidenceResult> ScoreConfidence(const telemetry::PerfTrace& trace,
                                           const Recommendation& original,
                                           const RecommendFn& recommend,
                                           const ConfidenceOptions& options,
                                           Rng* rng) {
  if (!recommend) return InvalidArgumentError("recommend function not set");
  if (rng == nullptr) return InvalidArgumentError("rng must not be null");
  if (options.runs <= 0) return InvalidArgumentError("runs must be positive");
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }

  ConfidenceResult result;
  result.runs = options.runs;

  const std::size_t window_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.window_days * 86400.0 /
                                  static_cast<double>(trace.interval_seconds())));
  if (options.scheme == BootstrapScheme::kWindow) {
    result.window_days = options.window_days;
    result.window_covers_trace = window_samples >= trace.num_samples();
  }
  if (result.window_covers_trace) {
    // Every window is the whole trace, and the recommendation is a pure
    // function of it: each run would reproduce the original.
    result.matching_runs = options.runs;
    result.score = 1.0;
    return result;
  }

  static obs::Counter* const kReruns =
      obs::DefaultMetrics().GetCounter("confidence.reruns");
  stats::Bootstrap bootstrap(trace.num_samples(), rng);
  for (int run = 0; run < options.runs; ++run) {
    std::vector<std::size_t> indices;
    switch (options.scheme) {
      case BootstrapScheme::kWindow:
        indices = bootstrap.SampleWindow(window_samples);
        break;
      case BootstrapScheme::kIid:
        indices = bootstrap.SampleWithReplacement(trace.num_samples());
        break;
    }
    const telemetry::PerfTrace resampled = trace.Select(indices);
    kReruns->Increment();
    StatusOr<Recommendation> rerun = recommend(resampled);
    // A failing bootstrap run (e.g. a degenerate window) counts as a
    // non-matching run: it is evidence the recommendation is unstable.
    if (rerun.ok() && rerun->sku.id == original.sku.id) {
      ++result.matching_runs;
    }
  }
  result.score =
      static_cast<double>(result.matching_runs) / static_cast<double>(result.runs);
  return result;
}

}  // namespace doppler::core
