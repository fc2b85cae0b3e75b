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
  /// The original (full-data) recommendation the runs are compared to.
  Recommendation original;
};

/// Derives the confidence score: rerun the full recommendation on `runs`
/// random subsets of the raw counter data and report the agreement with
/// the full-data recommendation. Stable utilisation patterns yield scores
/// near 1; volatile ones flag that more data should be collected (the
/// guardrail surfaced in DMA).
///
/// Object-identity guarantee: the original run invokes `recommend` with
/// the caller's `trace` object itself; every bootstrap run passes a
/// freshly materialised resample. Callers may therefore compare addresses
/// to reuse per-trace memoized state (sorted series) for the original run
/// only — the pipeline's confidence stage does exactly that. Resamples
/// must NOT share that state: their row order and multiset differ.
StatusOr<ConfidenceResult> ScoreConfidence(const telemetry::PerfTrace& trace,
                                           const RecommendFn& recommend,
                                           const ConfidenceOptions& options,
                                           Rng* rng);

}  // namespace doppler::core

#endif  // DOPPLER_CORE_CONFIDENCE_H_
