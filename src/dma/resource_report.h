#ifndef DOPPLER_DMA_RESOURCE_REPORT_H_
#define DOPPLER_DMA_RESOURCE_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "dma/pipeline.h"
#include "telemetry/perf_trace.h"

namespace doppler::dma {

/// The Resource Use Module (paper §4): renders the visual explanation that
/// ships with every recommendation — per-dimension usage plots and
/// distribution summaries, the price-performance curve, and the rationale —
/// so "customers can understand why they received a specific SKU
/// recommendation". Terminal/ASCII here; the DMA UI draws the same data.

/// Time-series plot plus distribution summary for every collected
/// dimension.
std::string RenderUsageReport(const telemetry::PerfTrace& trace);

/// The price-performance curve as an aligned table (price order) plus an
/// ASCII scatter of performance against monthly price.
std::string RenderCurveReport(const core::PricePerformanceCurve& curve,
                              int max_rows = 24);

/// The full explanation: usage, curve, recommendation and rationale.
std::string RenderRecommendationReport(const telemetry::PerfTrace& trace,
                                       const core::Recommendation& rec);

/// Per-dimension negotiability analysis: every summarisation strategy's
/// score for each profiling dimension plus the production (thresholding)
/// verdict — the "what performance dimension may be negotiable" view the
/// paper's field engineers reason with (§3.3).
std::string RenderNegotiabilityReport(const telemetry::PerfTrace& trace,
                                      catalog::Deployment deployment);

/// Rendering knobs for the assessment JSON.
struct AssessmentJsonOptions {
  /// Emit each stage's wall-clock seconds. Stage NAMES are always listed
  /// (execution order is part of the assessment); the seconds are the one
  /// nondeterministic field in the report, so batch/golden/determinism
  /// consumers turn them off to get byte-identical output.
  bool include_stage_seconds = true;
};

/// Machine-readable form of a full assessment for downstream tooling
/// (`doppler assess --json`): the elastic recommendation, the baseline
/// outcome, confidence, right-sizing, and the full curve.
std::string RenderAssessmentJson(const AssessmentOutcome& outcome);

/// Options-taking overload; the default options match the plain overload.
std::string RenderAssessmentJson(const AssessmentOutcome& outcome,
                                 const AssessmentJsonOptions& options);

/// One slot of the batch document: the full assessment JSON on success, a
/// {customer_id, status{code, message}} object on failure (an error slot
/// has no outcome to name itself, hence `customer_id`). A batch worker
/// renders its own slot, so this runs concurrently across slots.
std::string RenderFleetSlotJson(const std::string& customer_id,
                                const StatusOr<AssessmentOutcome>& outcome,
                                const AssessmentJsonOptions& options);

/// The batch document around rendered slots, in slot order: the
/// fleet_size / succeeded / failed header, then the slots verbatim.
std::string JoinFleetAssessmentJson(const std::vector<std::string>& slots,
                                    std::size_t succeeded);

/// Batch document for `doppler assess-batch --json`: one
/// RenderFleetSlotJson entry per request in request order, joined by
/// JoinFleetAssessmentJson. `customer_ids` aligns with `outcomes`.
std::string RenderFleetAssessmentJson(
    const std::vector<std::string>& customer_ids,
    const std::vector<StatusOr<AssessmentOutcome>>& outcomes,
    const AssessmentJsonOptions& options);

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_RESOURCE_REPORT_H_
