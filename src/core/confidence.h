#ifndef DOPPLER_CORE_CONFIDENCE_H_
#define DOPPLER_CORE_CONFIDENCE_H_

#include <functional>

#include "core/recommender.h"
#include "telemetry/perf_trace.h"
#include "util/random.h"
#include "util/statusor.h"

namespace doppler::core {

/// A recommendation procedure to bootstrap: trace in, recommendation out.
/// Both the DB and MI elastic paths fit this shape.
using RecommendFn =
    std::function<StatusOr<Recommendation>(const telemetry::PerfTrace&)>;

/// Bootstrap resampling scheme for the confidence score.
enum class BootstrapScheme {
  /// Contiguous random sub-window (preserves spike autocorrelation; the
  /// default, matching the paper's "bootstrap window sizes").
  kWindow,
  /// Classic iid resample with replacement of the full length.
  kIid,
};

struct ConfidenceOptions {
  int runs = 30;                ///< Bootstrap repetitions.
  double window_days = 7.0;     ///< Sub-window length for kWindow.
  BootstrapScheme scheme = BootstrapScheme::kWindow;
};

/// Result of the confidence procedure.
struct ConfidenceResult {
  /// Fraction of bootstrap runs whose recommended SKU matches the
  /// original recommendation (paper §3.4).
  double score = 0.0;
  int runs = 0;
  int matching_runs = 0;
  /// kWindow sub-window length, in days (0 under kIid).
  double window_days = 0.0;
  /// True when that window covers the whole trace: every run is the trace
  /// itself, so the score is 1 by construction and says nothing about
  /// stability. Only a longer collection makes the score informative.
  bool window_covers_trace = false;
};

/// Derives the confidence score: rerun the full recommendation on `runs`
/// random subsets of the raw counter data and report the agreement with
/// `original`, the caller's full-data recommendation of `trace` (what
/// `recommend(trace)` returns). Stable utilisation patterns yield scores
/// near 1; volatile ones flag that more data should be collected (the
/// guardrail surfaced in DMA).
///
/// A kWindow window at least as long as the trace makes every run the
/// trace itself, which reproduces `original`: the score is then 1 with no
/// rerun and no draw from `rng`. Every other run calls `recommend` once on
/// its resample and bumps the `confidence.reruns` counter.
StatusOr<ConfidenceResult> ScoreConfidence(const telemetry::PerfTrace& trace,
                                           const Recommendation& original,
                                           const RecommendFn& recommend,
                                           const ConfidenceOptions& options,
                                           Rng* rng);

}  // namespace doppler::core

#endif  // DOPPLER_CORE_CONFIDENCE_H_
