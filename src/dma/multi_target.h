#ifndef DOPPLER_DMA_MULTI_TARGET_H_
#define DOPPLER_DMA_MULTI_TARGET_H_

#include <string>
#include <vector>

#include "catalog/target.h"
#include "core/recommender.h"
#include "tco/tco.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::dma {

/// Cross-target assessment (ROADMAP item 5): one workload trace assessed
/// against several registered deployment targets, each compiled into its
/// own CompiledCatalog snapshot and run through the unchanged recommender
/// stack, then costed under every pricing model the target offers. The
/// serverless model's throttling is evaluated against the MOVING capacity
/// the autoscale simulation produces (paper Eq. 1 with R_cpu a function of
/// t; see core/autoscale.h and DESIGN.md §14).

/// One (pricing model, cost) row of a target's estimate table.
struct TargetPricingEstimate {
  catalog::PricingModel model = catalog::PricingModel::kPayGo;
  double monthly_cost = 0.0;
  /// Throttling probability under this model: the recommendation's own
  /// probability for pay-go/reserved (capacity is unchanged by billing),
  /// the moving-capacity probability for serverless autoscale.
  double throttling_probability = 0.0;
  /// Human-readable model detail ("33% reserved discount", "autoscale
  /// mean 3.4 vCores"), empty for pay-go.
  std::string detail;
};

/// One target's slice of the comparison. A target that fails to produce a
/// recommendation carries its error and empty estimates; it never sinks
/// the other targets.
struct TargetAssessment {
  std::string target_id;
  std::string display_name;
  Status status = OkStatus();
  /// Valid only when status is ok.
  core::Recommendation recommendation;
  /// One row per pricing model the target offers, spec order (pay-go
  /// first).
  std::vector<TargetPricingEstimate> pricing;
};

/// The full cross-target comparison for one workload.
struct CrossTargetReport {
  std::vector<TargetAssessment> targets;
  /// Index into `targets` of the cheapest successful (target, model)
  /// pair, -1 when every target failed.
  int best_index = -1;
  /// The winning pricing model and its bill (valid when best_index >= 0).
  catalog::PricingModel best_model = catalog::PricingModel::kPayGo;
  double best_monthly = 0.0;
  /// Staying-put cost from the on-prem model, for the savings line.
  double on_prem_monthly = 0.0;
};

struct CrossTargetOptions {
  tco::OnPremCostModel on_prem;
};

/// Assesses `trace` against every spec in `targets` (each pointer must
/// outlive the call; registry pointers do). Deterministic for a fixed
/// (trace, targets, options) input, at any engine thread count. Fails only
/// on an empty trace or empty target list — per-target failures are
/// recorded in the report.
StatusOr<CrossTargetReport> AssessAcrossTargets(
    const telemetry::PerfTrace& trace,
    const std::vector<const catalog::TargetSpec*>& targets,
    const CrossTargetOptions& options = {});

/// Resolves a comma-separated id list ("azure-db,aws-rds") against the
/// built-in registry; INVALID_ARGUMENT names the first unknown id.
StatusOr<std::vector<const catalog::TargetSpec*>> ResolveTargets(
    const std::string& comma_separated_ids);

/// Text table: one row per (target, pricing model) plus the on-prem
/// anchor and the savings line.
std::string RenderCrossTargetReport(const CrossTargetReport& report);

/// Machine-readable twin of the text report.
std::string RenderCrossTargetJson(const CrossTargetReport& report);

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_MULTI_TARGET_H_
