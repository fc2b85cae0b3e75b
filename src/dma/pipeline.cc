#include "dma/pipeline.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "util/logging.h"
#include "workload/population.h"

namespace doppler::dma {

namespace {

using catalog::Deployment;
using catalog::ResourceDim;

/// Times one pipeline stage: emits an obs span (trace buffer + latency
/// histogram) and records a per-request StageTiming through the context's
/// sink so the breakdown ships with the assessment itself.
class StageScope {
 public:
  StageScope(const char* name, TimingSink* sink)
      : span_(name),
        sink_(sink),
        slot_(sink->Open(name)),
        start_(std::chrono::steady_clock::now()) {}

  ~StageScope() {
    const double seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - start_)
            .count();
    sink_->Close(slot_, seconds);
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  obs::ScopedSpan span_;
  TimingSink* sink_;
  std::size_t slot_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case kStagePreprocess:
      return "pipeline.preprocess";
    case kStageQuality:
      return "pipeline.quality";
    case kStageLayout:
      return "pipeline.layout";
    case kStageRecommend:
      return "pipeline.recommend";
    case kStageBaseline:
      return "pipeline.baseline";
    case kStageConfidence:
      return "pipeline.confidence";
    case kStageRightsizing:
      return "pipeline.rightsizing";
  }
  return "pipeline.unknown";
}

StatusOr<SkuRecommendationPipeline> SkuRecommendationPipeline::Create(
    StaticInputs inputs) {
  return Create(std::move(inputs), Config());
}

StatusOr<SkuRecommendationPipeline> SkuRecommendationPipeline::Create(
    StaticInputs inputs, Config config) {
  if (inputs.catalog.empty()) {
    return InvalidArgumentError("static inputs carry an empty SKU catalog");
  }
  SkuRecommendationPipeline pipeline;
  pipeline.config_ = config;
  pipeline.pricing_ = std::make_unique<catalog::DefaultPricing>();
  // The whole SKU search space is compiled exactly once per pipeline:
  // per-deployment candidate sets in final (billed price, id) order with
  // memoized prices and capacities, plus the premium-disk limit table.
  // Every assessment afterwards reads borrowed views of this snapshot.
  pipeline.compiled_ = std::make_unique<const catalog::CompiledCatalog>(
      catalog::CompiledCatalog::Compile(std::move(inputs.catalog),
                                        pipeline.pricing_.get(),
                                        config.target));
  pipeline.estimator_ = std::make_unique<core::NonParametricEstimator>();
  pipeline.group_model_ =
      std::make_unique<core::GroupModel>(std::move(inputs.group_model));

  auto strategy = std::make_shared<core::ThresholdingStrategy>(config.rho);
  pipeline.db_profiler_ = std::make_unique<core::CustomerProfiler>(
      strategy, workload::ProfilingDims(Deployment::kSqlDb));
  pipeline.mi_profiler_ = std::make_unique<core::CustomerProfiler>(
      strategy, workload::ProfilingDims(Deployment::kSqlMi));

  pipeline.db_recommender_ = std::make_unique<core::ElasticRecommender>(
      pipeline.compiled_.get(), pipeline.estimator_.get(),
      pipeline.db_profiler_.get(), pipeline.group_model_.get());
  pipeline.mi_recommender_ = std::make_unique<core::ElasticRecommender>(
      pipeline.compiled_.get(), pipeline.estimator_.get(),
      pipeline.mi_profiler_.get(), pipeline.group_model_.get());
  pipeline.baseline_ = std::make_unique<core::BaselineRecommender>(
      pipeline.compiled_.get(), config.baseline_quantile);

  // Execution pool for the per-SKU probability scans, only when the caller
  // asks for one (num_threads > 1, or 0 on a multi-core host); either way
  // the assessment bytes are identical.
  const int threads = config.num_threads == 0
                          ? exec::ThreadPool::HardwareConcurrency()
                          : config.num_threads;
  if (threads > 1) {
    pipeline.pool_ = std::make_unique<exec::ThreadPool>(threads);
    pipeline.db_recommender_->SetExecutor(pipeline.pool_.get());
    pipeline.mi_recommender_->SetExecutor(pipeline.pool_.get());
  }
  return pipeline;
}

Status SkuRecommendationPipeline::StagePreprocess(RequestContext& ctx) const {
  const AssessmentRequest& request = *ctx.request;
  AssessmentOutcome& outcome = ctx.outcome;

  // The quality report starts from whatever ingestion already found (the
  // CLI's CSV-boundary gate). A request gated at ingest is not gated again;
  // any other passes the per-database gate here.
  outcome.quality = request.ingest_quality;
  outcome.quality.policy = request.quality_policy;
  const bool pregated = outcome.quality.samples_in > 0;
  quality::GateOptions gate;
  gate.policy = request.quality_policy;
  {
    StageScope stage("pipeline.preprocess", &ctx.timings);
    DOPPLER_ASSIGN_OR_RETURN(
        outcome.instance_trace,
        preprocessing_.PrepareInstanceTrace(request.database_traces,
                                            pregated ? nullptr : &gate,
                                            &ctx.pipeline_gate));
  }
  outcome.quality.MergeFrom(ctx.pipeline_gate);
  return OkStatus();
}

Status SkuRecommendationPipeline::StageQuality(RequestContext& ctx) const {
  const AssessmentRequest& request = *ctx.request;
  AssessmentOutcome& outcome = ctx.outcome;

  // Degraded mode is judged exactly once, on the instance rollup, against
  // the profiling dimensions the target deployment expects.
  {
    StageScope stage("pipeline.quality", &ctx.timings);
    quality::AssessDegradedMode(outcome.instance_trace.PresentDims(),
                                workload::ProfilingDims(request.target),
                                &outcome.quality);
  }
  if (outcome.quality.degraded) {
    static obs::Counter* const kDegraded =
        obs::DefaultMetrics().GetCounter("quality.degraded_assessments");
    kDegraded->Increment();
  }
  if (request.quality_policy == quality::QualityPolicy::kStrict &&
      outcome.quality.degraded) {
    std::string names;
    for (ResourceDim dim : outcome.quality.missing_dims) {
      if (!names.empty()) names += ", ";
      names += catalog::ResourceDimName(dim);
    }
    return FailedPreconditionError(
        "strict quality policy: expected profiling dimensions missing from "
        "the trace: " +
        names);
  }
  return OkStatus();
}

Status SkuRecommendationPipeline::StageLayout(RequestContext& ctx) const {
  const AssessmentRequest& request = *ctx.request;
  // Layout resolution is a handful of scalar ops, so it is deliberately
  // not a timed stage: the per-request stage_timings list is part of the
  // stable report surface.
  ctx.layout = request.layout;
  if (request.target == Deployment::kSqlMi && ctx.layout.files.empty()) {
    // Default MI layout: one file sized to the observed allocation.
    double size_gb = config_.mi_default_storage_gb;
    if (ctx.outcome.instance_trace.Has(ResourceDim::kStorageGb)) {
      size_gb = std::max(1.0, stats::Max(ctx.outcome.instance_trace.Values(
                                  ResourceDim::kStorageGb)));
    }
    ctx.layout =
        catalog::UniformLayout(size_gb * config_.mi_layout_headroom, 1);
  }
  return OkStatus();
}

Status SkuRecommendationPipeline::StageRecommend(RequestContext& ctx) const {
  const AssessmentRequest& request = *ctx.request;
  AssessmentOutcome& outcome = ctx.outcome;
  const core::ElasticRecommender& recommender =
      request.target == Deployment::kSqlDb ? *db_recommender_
                                           : *mi_recommender_;
  {
    StageScope stage("pipeline.recommend", &ctx.timings);
    DOPPLER_ASSIGN_OR_RETURN(
        outcome.elastic,
        recommender.Recommend(outcome.instance_trace, request.target,
                              ctx.layout));
  }
  DOPPLER_LOG(kDebug) << "elastic pick " << outcome.elastic.sku.id << " ("
                      << core::CurveShapeName(outcome.elastic.curve_shape)
                      << " curve) for " << outcome.customer_id;
  return OkStatus();
}

Status SkuRecommendationPipeline::StageBaseline(RequestContext& ctx) const {
  StageScope stage("pipeline.baseline", &ctx.timings);
  ctx.outcome.baseline =
      baseline_->Recommend(ctx.outcome.instance_trace, ctx.request->target);
  return OkStatus();
}

Status SkuRecommendationPipeline::StageConfidence(RequestContext& ctx) const {
  const AssessmentRequest& request = *ctx.request;
  if (!request.compute_confidence) return OkStatus();
  AssessmentOutcome& outcome = ctx.outcome;
  const core::ElasticRecommender& recommender =
      request.target == Deployment::kSqlDb ? *db_recommender_
                                           : *mi_recommender_;
  StageScope stage("pipeline.confidence", &ctx.timings);
  Rng rng(config_.confidence_seed);
  const catalog::FileLayout& layout = ctx.layout;
  core::RecommendFn recommend = [&recommender, &request,
                                 &layout](const telemetry::PerfTrace& trace) {
    return recommender.Recommend(trace, request.target, layout);
  };
  // The runs are compared with the recommend stage's pick; when that stage
  // did not run on this context, the pick is made here, once.
  std::optional<core::Recommendation> own_pick;
  if (!(ctx.completed_stages & kStageRecommend)) {
    DOPPLER_ASSIGN_OR_RETURN(own_pick, recommend(outcome.instance_trace));
  }
  DOPPLER_ASSIGN_OR_RETURN(
      core::ConfidenceResult confidence,
      core::ScoreConfidence(outcome.instance_trace,
                            own_pick ? *own_pick : outcome.elastic, recommend,
                            config_.confidence, &rng));
  outcome.confidence = std::move(confidence);
  return OkStatus();
}

Status SkuRecommendationPipeline::StageRightsizing(RequestContext& ctx) const {
  const AssessmentRequest& request = *ctx.request;
  if (request.current_sku_id.empty()) return OkStatus();
  StageScope stage("pipeline.rightsizing", &ctx.timings);
  StatusOr<core::RightSizingAssessment> rightsizing =
      core::AssessRightSizing(ctx.outcome.elastic.curve,
                              request.current_sku_id);
  if (rightsizing.ok()) {
    ctx.outcome.rightsizing = std::move(rightsizing).value();
  } else {
    // The request asked for right-sizing; a failure must not vanish.
    // Record why the stage produced no assessment so the report (and its
    // readers) can surface it.
    ctx.outcome.rightsizing_skip_reason = rightsizing.status().ToString();
    static obs::Counter* const kSkipped =
        obs::DefaultMetrics().GetCounter("pipeline.rightsizing_skipped");
    kSkipped->Increment();
  }
  return OkStatus();
}

AssessmentOutcome SkuRecommendationPipeline::Finish(RequestContext& ctx) const {
  ctx.timings.DrainTo(&ctx.outcome.stage_timings);
  ctx.outcome.completed_stages = ctx.completed_stages;
  return std::move(ctx.outcome);
}

Status SkuRecommendationPipeline::RunStages(RequestContext& ctx,
                                            StageMask stages) const {
  struct StageEntry {
    Stage stage;
    Status (SkuRecommendationPipeline::*run)(RequestContext&) const;
  };
  static constexpr StageEntry kStageTable[] = {
      {kStagePreprocess, &SkuRecommendationPipeline::StagePreprocess},
      {kStageQuality, &SkuRecommendationPipeline::StageQuality},
      {kStageLayout, &SkuRecommendationPipeline::StageLayout},
      {kStageRecommend, &SkuRecommendationPipeline::StageRecommend},
      {kStageBaseline, &SkuRecommendationPipeline::StageBaseline},
      {kStageConfidence, &SkuRecommendationPipeline::StageConfidence},
      {kStageRightsizing, &SkuRecommendationPipeline::StageRightsizing},
  };
  const AssessmentRequest& request = *ctx.request;
  // The deadline is only polled when it can actually expire, keeping the
  // unbounded (CLI one-shot) path branch-light and byte-identical.
  const bool bounded = request.deadline.IsBounded();
  for (const StageEntry& entry : kStageTable) {
    if (!(stages & entry.stage)) continue;
    const char* name = StageName(entry.stage);
    // Hook first, check second: a hook that cancels the deadline at this
    // boundary is observed by the very next check, which is what makes
    // deadline-expiry tests schedule-independent.
    if (request.stage_boundary_hook) request.stage_boundary_hook(name);
    if (bounded && request.deadline.IsExpired()) {
      static obs::Counter* const kExpired =
          obs::DefaultMetrics().GetCounter("pipeline.deadline_expired");
      kExpired->Increment();
      return DeadlineExceededError(std::string("deadline expired before ") +
                                   name);
    }
    DOPPLER_RETURN_IF_ERROR((this->*entry.run)(ctx));
    ctx.completed_stages |= entry.stage;
  }
  return OkStatus();
}

StatusOr<AssessmentOutcome> SkuRecommendationPipeline::AssessStages(
    const AssessmentRequest& request, StageMask stages) const {
  if (request.database_traces.empty()) {
    return InvalidArgumentError("assessment request carries no traces");
  }
  DOPPLER_TRACE_SPAN("pipeline.assess");
  static obs::Counter* const kAssessments =
      obs::DefaultMetrics().GetCounter("pipeline.assessments");
  kAssessments->Increment();

  RequestContext ctx(request);
  DOPPLER_RETURN_IF_ERROR(RunStages(ctx, stages));
  return Finish(ctx);
}

StatusOr<AssessmentOutcome> SkuRecommendationPipeline::Assess(
    const AssessmentRequest& request) const {
  return AssessStages(request, kAllStages);
}

}  // namespace doppler::dma
