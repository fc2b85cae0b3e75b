#ifndef DOPPLER_DMA_REQUEST_CONTEXT_H_
#define DOPPLER_DMA_REQUEST_CONTEXT_H_

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/file_layout.h"
#include "core/confidence.h"
#include "core/recommender.h"
#include "core/rightsizing.h"
#include "quality/quality_gate.h"
#include "quality/quality_report.h"
#include "telemetry/perf_trace.h"
#include "util/deadline.h"
#include "util/statusor.h"

namespace doppler::dma {

/// A set of pipeline Stage flags (the enum lives in dma/pipeline.h; the
/// alias lives here so outcomes can record stage progress without pulling
/// the whole pipeline interface into every consumer).
using StageMask = unsigned;

/// One assessment request as the DMA tool would submit it: raw per-database
/// counters plus migration intent.
struct AssessmentRequest {
  std::string customer_id;
  catalog::Deployment target = catalog::Deployment::kSqlDb;
  /// Raw collector output, one trace per database.
  std::vector<telemetry::PerfTrace> database_traces;
  /// MI targets: the data-file layout (defaults to one file sized from the
  /// observed storage counter when empty).
  catalog::FileLayout layout;
  /// Cloud customers only: the SKU they currently run, enabling the
  /// right-sizing assessment.
  std::string current_sku_id;
  /// Run the bootstrap confidence score (adds one curve build per run when
  /// the trace is longer than the bootstrap window, none otherwise).
  bool compute_confidence = false;
  /// How the telemetry quality gate reacts to defects in the raw traces:
  /// kRepair (default) fixes and records, kStrict aborts the assessment on
  /// the first defect, kPermissive records only.
  quality::QualityPolicy quality_policy = quality::QualityPolicy::kRepair;
  /// Quality findings from ingestion upstream of the pipeline (e.g. the
  /// CLI's ReadTraceFileGated); merged into the outcome's report so the
  /// full dirt trail survives end to end. A report with samples_in > 0
  /// marks the traces as gated already: the pipeline does not gate them
  /// again.
  quality::TraceQualityReport ingest_quality;
  /// Time budget for the assessment, checked cooperatively at stage
  /// boundaries: an expired request returns kDeadlineExceeded carrying the
  /// stages that DID complete (AssessmentOutcome::completed_stages) rather
  /// than burning pool time on the rest. Default: never expires.
  Deadline deadline;
  /// Invoked at every stage boundary (before the deadline check) with the
  /// stage's span name ("pipeline.recommend", ...). Fault-injection seam:
  /// sim::StageLatencyPlan provides a seeded delay implementation, and
  /// deterministic deadline tests cancel the request's deadline from here
  /// at a chosen boundary instead of racing a timer. Null = no-op.
  std::function<void(const char* stage)> stage_boundary_hook;
};

/// Wall-clock latency of one pipeline stage of an assessment, named by the
/// observability span scheme ("pipeline.preprocess", "pipeline.recommend",
/// ...). Per-request counterpart of the process-wide `latency.*`
/// histograms in obs::DefaultMetrics().
struct StageTiming {
  std::string stage;
  double seconds = 0.0;
};

/// Everything the DMA UI surfaces for one request.
struct AssessmentOutcome {
  std::string customer_id;
  /// Deployment the assessment targeted.
  catalog::Deployment target = catalog::Deployment::kSqlDb;
  /// The Doppler (elastic) recommendation.
  core::Recommendation elastic;
  /// The legacy baseline recommendation; NOT_FOUND when the baseline could
  /// not find any SKU (its documented failure mode, §5.3).
  StatusOr<core::Recommendation> baseline{
      NotFoundError("baseline not evaluated")};
  std::optional<core::ConfidenceResult> confidence;
  std::optional<core::RightSizingAssessment> rightsizing;
  /// Why the right-sizing stage produced no assessment despite the request
  /// naming a current SKU (e.g. the SKU is not on the curve). Empty when
  /// right-sizing succeeded or was never requested.
  std::string rightsizing_skip_reason;
  /// The preprocessed instance-level trace the engine consumed.
  telemetry::PerfTrace instance_trace;
  /// Everything the telemetry quality gate found and repaired across
  /// ingestion and preprocessing, plus the degraded-mode assessment of the
  /// instance trace against the target's profiling dimensions.
  quality::TraceQualityReport quality;
  /// Where the assessment's time went, one entry per executed stage in
  /// execution order (skipped stages — confidence, right-sizing — do not
  /// appear).
  std::vector<StageTiming> stage_timings;
  /// Stages that ran to completion on this outcome (dma::Stage flags).
  /// Equal to the requested mask on success; a strict prefix of it when a
  /// deadline expired mid-pipeline and the serving layer salvaged the
  /// partial outcome. Not part of the rendered JSON report.
  StageMask completed_stages = 0;
};

/// Collects per-request stage timings. StageScope used to append straight
/// to AssessmentOutcome::stage_timings from its destructor, which is a data
/// race the moment any stage runs work on pool threads that itself opens a
/// scope. The sink serialises writes behind a mutex and keeps entries in
/// scope-OPEN order (a slot is reserved on entry), so the drained list is
/// order-stable no matter which thread closes a scope first.
class TimingSink {
 public:
  /// Reserves a slot in entry order and returns its index.
  std::size_t Open(const char* stage) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({stage, 0.0});
    return entries_.size() - 1;
  }

  void Close(std::size_t slot, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[slot].seconds = seconds;
  }

  /// Moves the collected timings (entry order) into `out`.
  void DrainTo(std::vector<StageTiming>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    *out = std::move(entries_);
    entries_.clear();
  }

 private:
  std::mutex mu_;
  std::vector<StageTiming> entries_;
};

/// Per-request working state threaded through the pipeline's stage
/// functions. Ownership rules:
///  - the context BORROWS the request, which must outlive it;
///  - the context OWNS everything produced on the request's behalf: the
///    outcome under assembly, the timing sink and the resolved file
///    layout.
/// A context is single-request, non-copyable scratch state; stages may be
/// applied to it exactly once, in pipeline order.
struct RequestContext {
  explicit RequestContext(const AssessmentRequest& req) : request(&req) {
    outcome.customer_id = req.customer_id;
    outcome.target = req.target;
  }

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  const AssessmentRequest* request;
  AssessmentOutcome outcome;
  TimingSink timings;
  /// Resolved by the layout stage: the request's layout, or the default MI
  /// layout sized from the observed storage counter.
  catalog::FileLayout layout;
  /// Findings of the in-pipeline quality gate, merged into outcome.quality
  /// by the preprocess stage.
  quality::TraceQualityReport pipeline_gate;
  /// Stage flags RunStages has completed so far; Finish copies the mask
  /// into the outcome so partial progress survives a deadline expiry.
  StageMask completed_stages = 0;
};

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_REQUEST_CONTEXT_H_
