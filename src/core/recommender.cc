#include "core/recommender.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace doppler::core {

namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::ResourceVector;

/// Records profiling dimensions the trace never carried: the assessment
/// narrowed Eq. 1's joint demand to the collected dimensions (which can
/// only understate throttling), so the pick is flagged as degraded.
void NoteDegradedDims(const std::vector<ResourceDim>& profile_dims,
                      const telemetry::PerfTrace& trace,
                      Recommendation* recommendation) {
  for (ResourceDim dim : profile_dims) {
    if (!trace.Has(dim)) recommendation->missing_profile_dims.push_back(dim);
  }
  recommendation->degraded = !recommendation->missing_profile_dims.empty();
  if (!recommendation->degraded) return;
  static obs::Counter* const kDegraded =
      obs::DefaultMetrics().GetCounter("recommend.degraded");
  kDegraded->Increment();
  std::string names;
  for (ResourceDim dim : recommendation->missing_profile_dims) {
    if (!names.empty()) names += ", ";
    names += catalog::ResourceDimName(dim);
  }
  recommendation->rationale +=
      " [degraded: " + names + " not collected; throttling may be "
      "understated]";
}

}  // namespace

ElasticRecommender::ElasticRecommender(const catalog::CompiledCatalog* compiled,
                                       const ThrottlingEstimator* estimator,
                                       const CustomerProfiler* profiler,
                                       const GroupModel* group_model,
                                       Options options)
    : compiled_(compiled),
      estimator_(estimator),
      profiler_(profiler),
      group_model_(group_model),
      options_(options) {}

ElasticRecommender::ElasticRecommender(const catalog::CompiledCatalog* compiled,
                                       const ThrottlingEstimator* estimator,
                                       const CustomerProfiler* profiler,
                                       const GroupModel* group_model)
    : ElasticRecommender(compiled, estimator, profiler, group_model,
                         Options()) {}

StatusOr<Recommendation> ElasticRecommender::RecommendDb(
    const telemetry::PerfTrace& trace,
    const telemetry::TraceStatsCache* stats) const {
  const catalog::CompiledView candidates =
      compiled_->ForDeployment(Deployment::kSqlDb).view();
  if (candidates.empty()) {
    return FailedPreconditionError("catalog contains no SQL DB SKUs");
  }
  DOPPLER_ASSIGN_OR_RETURN(
      PricePerformanceCurve curve,
      PricePerformanceCurve::Build(trace, candidates, compiled_->pricing(),
                                   *estimator_, executor_));
  return SelectFromCurve(std::move(curve), trace, stats);
}

StatusOr<Recommendation> ElasticRecommender::RecommendMi(
    const telemetry::PerfTrace& trace, const catalog::FileLayout& layout,
    const telemetry::TraceStatsCache* stats) const {
  DOPPLER_ASSIGN_OR_RETURN(
      MiCompiledFilterResult filtered,
      FilterMiCandidates(*compiled_, layout, trace));
  DOPPLER_ASSIGN_OR_RETURN(
      PricePerformanceCurve curve,
      PricePerformanceCurve::Build(trace, filtered.candidates,
                                   compiled_->pricing(), *estimator_,
                                   executor_, &compiled_->target()));
  DOPPLER_ASSIGN_OR_RETURN(Recommendation recommendation,
                           SelectFromCurve(std::move(curve), trace, stats));
  if (filtered.restricted_to_bc) {
    recommendation.rationale +=
        " (GP premium-disk layouts could not reach 95% IOPS/throughput "
        "satisfaction; search restricted to Business Critical)";
  }
  return recommendation;
}

StatusOr<Recommendation> ElasticRecommender::Recommend(
    const telemetry::PerfTrace& trace, Deployment deployment,
    const catalog::FileLayout& layout,
    const telemetry::TraceStatsCache* stats) const {
  if (deployment == Deployment::kSqlDb) return RecommendDb(trace, stats);
  return RecommendMi(trace, layout, stats);
}

namespace {

// Curve-type tally (paper §5.1 reports the fleet-wide flat/simple/complex
// split); one increment per recommendation produced.
void CountCurveShape(CurveShape shape) {
  static obs::Counter* const kFlat =
      obs::DefaultMetrics().GetCounter("recommend.curve.flat");
  static obs::Counter* const kSimple =
      obs::DefaultMetrics().GetCounter("recommend.curve.simple");
  static obs::Counter* const kComplex =
      obs::DefaultMetrics().GetCounter("recommend.curve.complex");
  switch (shape) {
    case CurveShape::kFlat:
      kFlat->Increment();
      break;
    case CurveShape::kSimple:
      kSimple->Increment();
      break;
    case CurveShape::kComplex:
      kComplex->Increment();
      break;
  }
}

}  // namespace

StatusOr<Recommendation> ElasticRecommender::SelectFromCurve(
    PricePerformanceCurve curve, const telemetry::PerfTrace& trace,
    const telemetry::TraceStatsCache* stats) const {
  DOPPLER_TRACE_SPAN("recommend.select");
  Recommendation recommendation;
  recommendation.curve_shape = curve.Classify(options_.classify_epsilon);
  CountCurveShape(recommendation.curve_shape);
  DOPPLER_LOG(kDebug) << "curve classified as "
                      << CurveShapeName(recommendation.curve_shape) << " over "
                      << curve.points().size() << " points";

  if (recommendation.curve_shape == CurveShape::kFlat) {
    // Every SKU satisfies the workload: the cheapest is the most
    // cost-efficient option (paper §5.1).
    DOPPLER_ASSIGN_OR_RETURN(
        PricePerformancePoint point,
        curve.CheapestFullySatisfying(options_.full_satisfaction_epsilon));
    recommendation.sku = point.sku;
    recommendation.monthly_cost = point.monthly_price;
    recommendation.throttling_probability = point.MonotoneProbability();
    recommendation.rationale =
        "flat price-performance curve: every relevant SKU meets 100% of the "
        "workload's needs, so the cheapest is optimal";
    NoteDegradedDims(profiler_->dims(), trace, &recommendation);
    recommendation.curve = std::move(curve);
    return recommendation;
  }

  // Profile the customer and pull the learned group target (Eqs. 2-6).
  StatusOr<CustomerProfile> profiled = [&] {
    DOPPLER_TRACE_SPAN("recommend.profile");
    return profiler_->Profile(trace, stats);
  }();
  DOPPLER_ASSIGN_OR_RETURN(CustomerProfile profile, std::move(profiled));
  recommendation.group_id = profile.group_id;
  recommendation.group_target = group_model_->TargetProbability(profile.group_id);

  DOPPLER_ASSIGN_OR_RETURN(
      PricePerformancePoint point,
      curve.ClosestBelowTarget(recommendation.group_target));
  recommendation.sku = point.sku;
  recommendation.monthly_cost = point.monthly_price;
  recommendation.throttling_probability = point.MonotoneProbability();

  std::string negotiable_dims;
  for (std::size_t i = 0; i < profile.summary.dims.size(); ++i) {
    if (profile.summary.negotiable[i]) {
      if (!negotiable_dims.empty()) negotiable_dims += ", ";
      negotiable_dims += catalog::ResourceDimName(profile.summary.dims[i]);
    }
  }
  recommendation.rationale =
      std::string(CurveShapeName(recommendation.curve_shape)) +
      " curve; profiled into group " + std::to_string(profile.group_id + 1) +
      (negotiable_dims.empty()
           ? " (no negotiable dimensions)"
           : " (negotiable: " + negotiable_dims + ")") +
      "; similar migrated customers settle at ~" +
      FormatPercent(recommendation.group_target, 1) +
      " throttling probability";
  NoteDegradedDims(profiler_->dims(), trace, &recommendation);
  recommendation.curve = std::move(curve);
  return recommendation;
}

BaselineRecommender::BaselineRecommender(
    const catalog::CompiledCatalog* compiled, double quantile)
    : compiled_(compiled), quantile_(quantile) {}

StatusOr<ResourceVector> BaselineRecommender::ScalarRequirements(
    const telemetry::PerfTrace& trace,
    const telemetry::TraceStatsCache* cache) const {
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  ResourceVector needs;
  for (ResourceDim dim : trace.PresentDims()) {
    // Inverted dimensions need the LOW quantile: the tightest latency the
    // workload relies on.
    const double q = catalog::IsInvertedDim(dim) ? 1.0 - quantile_ : quantile_;
    // The cache holds the sorted series; stats::Quantile sorts a copy and
    // interpolates identically, so both paths agree bit for bit.
    needs.Set(dim, cache != nullptr
                       ? cache->Quantile(dim, q)
                       : stats::Quantile(trace.Values(dim), q));
  }
  return needs;
}

StatusOr<Recommendation> BaselineRecommender::Recommend(
    const telemetry::PerfTrace& trace, Deployment deployment,
    const telemetry::TraceStatsCache* cache) const {
  DOPPLER_ASSIGN_OR_RETURN(ResourceVector needs,
                           ScalarRequirements(trace, cache));
  const catalog::CompiledView candidates =
      compiled_->ForDeployment(deployment).view();
  if (candidates.empty()) {
    return FailedPreconditionError("catalog has no SKUs for the deployment");
  }
  // Compiled candidates are cheapest-first; the first SKU meeting every
  // scalar requirement wins. Capacities and the monthly bill read the
  // snapshot's memoized values — no per-call derivation.
  for (const catalog::CompiledEntry& entry : candidates) {
    const ResourceVector& caps = entry.capacities;
    bool fits = true;
    for (ResourceDim dim : needs.PresentDims()) {
      if (!caps.Has(dim)) continue;
      if (ResourceVector::Exceeds(dim, needs.Get(dim), caps.Get(dim))) {
        fits = false;
        break;
      }
    }
    if (fits) {
      Recommendation recommendation;
      recommendation.sku = *entry.sku;
      recommendation.monthly_cost = entry.monthly_price;
      recommendation.throttling_probability = 0.0;
      recommendation.rationale =
          "baseline: cheapest SKU meeting the " +
          FormatPercent(quantile_, 0) +
          " quantile of every collected counter";
      return recommendation;
    }
  }
  return NotFoundError(
      "baseline strategy found no SKU meeting every scalar requirement");
}

}  // namespace doppler::core
