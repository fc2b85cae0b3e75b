#ifndef DOPPLER_DMA_PIPELINE_H_
#define DOPPLER_DMA_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/compiled_catalog.h"
#include "catalog/file_layout.h"
#include "core/confidence.h"
#include "core/recommender.h"
#include "core/rightsizing.h"
#include "dma/preprocess.h"
#include "dma/request_context.h"
#include "exec/thread_pool.h"
#include "quality/quality_gate.h"
#include "util/statusor.h"

namespace doppler::dma {

/// The pipeline's stages as bit flags, in canonical execution order.
/// AssessStages masks select a subset; each stage assumes its upstream
/// stages already ran on the context (see the stage functions below).
enum Stage : unsigned {
  kStagePreprocess = 1u << 0,
  kStageQuality = 1u << 1,
  kStageLayout = 1u << 2,
  kStageRecommend = 1u << 3,
  kStageBaseline = 1u << 4,
  kStageConfidence = 1u << 5,
  kStageRightsizing = 1u << 6,
};

// StageMask (a set of Stage flags) is declared in dma/request_context.h so
// outcomes can record stage progress without including this header.

inline constexpr StageMask kAllStages =
    kStagePreprocess | kStageQuality | kStageLayout | kStageRecommend |
    kStageBaseline | kStageConfidence | kStageRightsizing;

/// The stage's observability span name ("pipeline.preprocess", ...), also
/// the name the request's stage_boundary_hook receives. `stage` must be a
/// single Stage flag.
const char* StageName(Stage stage);

/// The SKU Recommendation Pipeline (paper §4): preprocessing, curve
/// building, profiling, elastic + baseline recommendations, confidence and
/// right-sizing. `Assess` runs the whole thing; batch drivers (the fleet
/// assessor, backtests, the simulator's replayer) can instead run named
/// stages over a RequestContext, or a masked subset via `AssessStages`.
///
/// Create() compiles the SKU catalog into an immutable CompiledCatalog
/// snapshot exactly once; every assessment afterwards reads borrowed views
/// of it (no per-request catalog copies, price derivations, or sorts). The
/// pipeline owns its engine components; it is movable and cheap to share
/// by const reference across a fleet.
class SkuRecommendationPipeline {
 public:
  struct Config {
    double baseline_quantile = 0.95;
    double rho = 0.10;  ///< Thresholding-duration cutoff.
    core::ConfidenceOptions confidence;
    std::uint64_t confidence_seed = 19;
    /// Worker threads for the per-SKU curve build. The default 1 keeps the
    /// engine strictly serial (no pool is created): the request workers
    /// (exec::FleetAssessor, the serve pool) are the one level of
    /// parallelism, and no CLI command sets this. 0 picks the hardware
    /// concurrency, >1 sizes the pool. Assessments are bit-identical at
    /// every setting — parallelism changes wall-clock only.
    int num_threads = 1;
    /// Default MI layout (used when an MI request carries no file layout):
    /// allocated size to assume, in GB, when the trace never reported a
    /// storage counter. Mirrors DMA's single-data-file default for small
    /// databases.
    double mi_default_storage_gb = 32.0;
    /// Headroom multiplier applied to the observed (or assumed) allocated
    /// size before placing the default MI layout on premium disks, so the
    /// provisioned file is not 100% full on day one.
    double mi_layout_headroom = 1.1;
    /// Deployment target the catalog is compiled for (BORROWED; built-in
    /// specs have static storage). nullptr compiles for the Azure DB/MI
    /// spec — the pre-registry behaviour, byte for byte.
    const catalog::TargetSpec* target = nullptr;
  };

  /// Builds a pipeline around the shipped static inputs.
  static StatusOr<SkuRecommendationPipeline> Create(StaticInputs inputs,
                                                    Config config);

  /// Default-config overload (a default argument of a nested aggregate
  /// cannot appear inside the enclosing class definition).
  static StatusOr<SkuRecommendationPipeline> Create(StaticInputs inputs);

  /// Runs one full assessment (all stages).
  StatusOr<AssessmentOutcome> Assess(const AssessmentRequest& request) const;

  /// Runs the masked stages in canonical order over a fresh context and
  /// finalises the outcome. The mask must be prefix-consistent: a selected
  /// stage's upstream data dependencies (see each stage function) must
  /// also be selected.
  StatusOr<AssessmentOutcome> AssessStages(const AssessmentRequest& request,
                                           StageMask stages) const;

  /// Runs the masked stages in canonical order over a caller-owned context,
  /// invoking the request's stage_boundary_hook and checking its deadline
  /// before each stage: on expiry, returns kDeadlineExceeded immediately
  /// with ctx.completed_stages recording the prefix that DID run. Callers
  /// that want the partial outcome (the serving layer) call Finish(ctx)
  /// even on error; AssessStages instead drops it and propagates the
  /// status.
  Status RunStages(RequestContext& ctx, StageMask stages) const;

  // --- Individual stage functions -----------------------------------------
  // Each operates on a caller-owned RequestContext and may be invoked at
  // most once per context, in pipeline order. Conditional stages
  // (confidence, right-sizing) are no-ops when the request does not ask
  // for them.

  /// Rolls the per-database traces up to the instance trace through the
  /// telemetry quality gate; merges ingest + pipeline gate findings.
  Status StagePreprocess(RequestContext& ctx) const;

  /// Judges degraded mode on the instance rollup; fails under the strict
  /// quality policy when profiling dimensions are missing. Requires
  /// StagePreprocess.
  Status StageQuality(RequestContext& ctx) const;

  /// Resolves the effective file layout (MI default layout when the
  /// request carries none). Requires StagePreprocess.
  Status StageLayout(RequestContext& ctx) const;

  /// Elastic (Doppler) recommendation over the compiled snapshot.
  /// Requires StagePreprocess and StageLayout.
  Status StageRecommend(RequestContext& ctx) const;

  /// Legacy baseline recommendation; its failure is recorded in the
  /// outcome, never propagated. Requires StagePreprocess.
  Status StageBaseline(RequestContext& ctx) const;

  /// Bootstrap confidence score (when the request asks for it). Requires
  /// StageRecommend's inputs (preprocess + layout). The runs are compared
  /// with the outcome's elastic pick when StageRecommend completed on this
  /// context; otherwise the stage recommends once itself.
  Status StageConfidence(RequestContext& ctx) const;

  /// Right-sizing against the request's current SKU (when named). A
  /// failure is recorded as the outcome's skip reason, never propagated.
  /// Requires StageRecommend.
  Status StageRightsizing(RequestContext& ctx) const;

  /// Drains the stage timings into the outcome and releases it. The
  /// context is dead afterwards.
  AssessmentOutcome Finish(RequestContext& ctx) const;

  const catalog::SkuCatalog& catalog() const { return compiled_->catalog(); }
  /// The immutable compiled snapshot every assessment reads.
  const catalog::CompiledCatalog& compiled() const { return *compiled_; }
  const core::GroupModel& group_model() const { return *group_model_; }

 private:
  SkuRecommendationPipeline() = default;

  // Engine components live behind unique_ptr so the recommenders' borrowed
  // pointers stay valid across moves of the pipeline object.
  std::unique_ptr<catalog::DefaultPricing> pricing_;
  // Compiled once at Create; immutable and read concurrently by every
  // assessment worker. Borrows pricing_.
  std::unique_ptr<const catalog::CompiledCatalog> compiled_;
  std::unique_ptr<core::NonParametricEstimator> estimator_;
  std::unique_ptr<core::GroupModel> group_model_;
  std::unique_ptr<core::CustomerProfiler> db_profiler_;
  std::unique_ptr<core::CustomerProfiler> mi_profiler_;
  std::unique_ptr<core::ElasticRecommender> db_recommender_;
  std::unique_ptr<core::ElasticRecommender> mi_recommender_;
  std::unique_ptr<core::BaselineRecommender> baseline_;
  // SKU-scoring pool shared by both recommenders; they borrow the raw
  // pointer, which stays valid across moves of the pipeline object.
  std::unique_ptr<exec::ThreadPool> pool_;
  DataPreprocessingModule preprocessing_;
  Config config_;
};

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_PIPELINE_H_
