#include "dma/multi_target.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "catalog/compiled_catalog.h"
#include "core/autoscale.h"
#include "core/negotiability.h"
#include "core/profiler.h"
#include "core/throttling.h"
#include "dma/shipped_models.h"
#include "stats/descriptive.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/population.h"

namespace doppler::dma {

namespace {

// Assesses one target end to end: compile its spec, take its default group
// model, recommend, then cost the pick under every pricing model the spec
// offers.
TargetAssessment AssessOneTarget(const telemetry::PerfTrace& trace,
                                 const catalog::TargetSpec& spec) {
  TargetAssessment assessment;
  assessment.target_id = spec.id;
  assessment.display_name = spec.display_name;

  if (spec.deployment != catalog::Deployment::kSqlDb) {
    assessment.status = FailedPreconditionError(
        "cross-target assess supports kSqlDb targets (MI-style targets "
        "need a file layout per target)");
    return assessment;
  }

  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::CompileTarget(spec, &pricing);
  const core::NonParametricEstimator estimator;

  StatusOr<core::GroupModel> model =
      DefaultGroupModel(spec, spec.deployment);
  if (!model.ok()) {
    assessment.status = model.status();
    return assessment;
  }
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(spec.deployment));
  const core::ElasticRecommender recommender(&compiled, &estimator, &profiler,
                                             &*model);
  StatusOr<core::Recommendation> recommendation =
      recommender.RecommendDb(trace);
  if (!recommendation.ok()) {
    assessment.status = recommendation.status();
    return assessment;
  }
  assessment.recommendation = *std::move(recommendation);
  const core::Recommendation& rec = assessment.recommendation;

  for (const catalog::TargetPricingModel& model_spec : spec.pricing_models) {
    TargetPricingEstimate estimate;
    estimate.model = model_spec.model;
    switch (model_spec.model) {
      case catalog::PricingModel::kPayGo:
        estimate.monthly_cost = rec.monthly_cost;
        estimate.throttling_probability = rec.throttling_probability;
        break;
      case catalog::PricingModel::kReserved:
        estimate.monthly_cost =
            rec.monthly_cost * (1.0 - model_spec.reserved_discount);
        estimate.throttling_probability = rec.throttling_probability;
        estimate.detail =
            FormatPercent(model_spec.reserved_discount, 0) +
            " reserved discount";
        break;
      case catalog::PricingModel::kServerless: {
        // Cost the recommended shape as if it autoscaled: simulate the
        // lagging autoscaler over the CPU column, bill the mean
        // provisioned capacity, and evaluate throttling against the
        // MOVING provisioned series (Eq. 1 with R_cpu(t)).
        StatusOr<core::AutoscaleSimulation> sim =
            core::SimulateServerlessAutoscale(trace, rec.sku,
                                              model_spec.autoscale);
        if (!sim.ok()) continue;  // e.g. no CPU column: no serverless row.
        StatusOr<double> probability = estimator.ProbabilityMoving(
            trace, rec.sku.Capacities(), sim->capacity);
        if (!probability.ok()) continue;
        estimate.monthly_cost = sim->monthly_cost;
        estimate.throttling_probability = *probability;
        estimate.detail = "autoscale mean " +
                          FormatDouble(sim->mean_provisioned_vcores, 1) +
                          " vCores";
        break;
      }
    }
    assessment.pricing.push_back(std::move(estimate));
  }
  return assessment;
}

}  // namespace

StatusOr<CrossTargetReport> AssessAcrossTargets(
    const telemetry::PerfTrace& trace,
    const std::vector<const catalog::TargetSpec*>& targets,
    const CrossTargetOptions& options) {
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  if (targets.empty()) return InvalidArgumentError("no targets to assess");

  CrossTargetReport report;
  const double storage_gb =
      trace.Has(catalog::ResourceDim::kStorageGb)
          ? stats::Max(trace.Values(catalog::ResourceDim::kStorageGb))
          : 0.0;
  report.on_prem_monthly = options.on_prem.MonthlyCost(storage_gb);

  for (const catalog::TargetSpec* spec : targets) {
    if (spec == nullptr) return InvalidArgumentError("null target spec");
    report.targets.push_back(AssessOneTarget(trace, *spec));
  }

  for (std::size_t i = 0; i < report.targets.size(); ++i) {
    const TargetAssessment& target = report.targets[i];
    if (!target.status.ok()) continue;
    for (const TargetPricingEstimate& estimate : target.pricing) {
      if (report.best_index < 0 || estimate.monthly_cost < report.best_monthly) {
        report.best_index = static_cast<int>(i);
        report.best_model = estimate.model;
        report.best_monthly = estimate.monthly_cost;
      }
    }
  }
  return report;
}

StatusOr<std::vector<const catalog::TargetSpec*>> ResolveTargets(
    const std::string& comma_separated_ids) {
  std::vector<const catalog::TargetSpec*> specs;
  std::stringstream stream(comma_separated_ids);
  std::string id;
  while (std::getline(stream, id, ',')) {
    id = std::string(Trim(id));
    if (id.empty()) continue;
    const catalog::TargetSpec* spec =
        catalog::TargetRegistry::BuiltIns().Find(id);
    if (spec == nullptr) {
      std::string known;
      for (const catalog::TargetSpec& built_in :
           catalog::TargetRegistry::BuiltIns().specs()) {
        if (!known.empty()) known += ", ";
        known += built_in.id;
      }
      return InvalidArgumentError("unknown target '" + id +
                                  "' (registered: " + known + ")");
    }
    specs.push_back(spec);
  }
  if (specs.empty()) {
    return InvalidArgumentError("no target ids given (expected e.g. "
                                "--targets azure-db,aws-rds)");
  }
  return specs;
}

std::string RenderCrossTargetReport(const CrossTargetReport& report) {
  std::ostringstream out;
  TablePrinter table({"Target", "Pricing model", "Recommended SKU", "Monthly",
                      "Throttling", "Detail"});
  table.AddRow({"On-premises", "-", "(current estate)",
                FormatDollars(report.on_prem_monthly, 0), "-", "-"});
  for (std::size_t i = 0; i < report.targets.size(); ++i) {
    const TargetAssessment& target = report.targets[i];
    if (!target.status.ok()) {
      table.AddRow({target.display_name, "-", "(failed)", "-", "-",
                    std::string(target.status.message())});
      continue;
    }
    for (const TargetPricingEstimate& estimate : target.pricing) {
      const bool best = static_cast<int>(i) == report.best_index &&
                        estimate.model == report.best_model;
      table.AddRow({target.display_name,
                    std::string(catalog::PricingModelName(estimate.model)) +
                        (best ? "  <== best" : ""),
                    // The raw id, not DisplayName(): display names encode
                    // the Azure tier/hardware nomenclature, which reads
                    // wrong for non-Azure targets.
                    target.recommendation.sku.id,
                    FormatDollars(estimate.monthly_cost, 0),
                    FormatPercent(estimate.throttling_probability, 1),
                    estimate.detail.empty() ? "-" : estimate.detail});
    }
  }
  out << table.ToString();
  if (report.best_index >= 0) {
    const TargetAssessment& best = report.targets[report.best_index];
    const double savings = report.on_prem_monthly - report.best_monthly;
    out << "\nBest option: " << best.display_name << " under "
        << catalog::PricingModelName(report.best_model) << " at "
        << FormatDollars(report.best_monthly, 0) << "/month";
    if (savings > 0.0) {
      out << " — saves " << FormatDollars(savings, 0)
          << "/month over staying on-premises.\n";
    } else {
      out << " — staying on-premises is cheaper by "
          << FormatDollars(-savings, 0) << "/month.\n";
    }
  } else {
    out << "\nNo target produced a recommendation.\n";
  }
  return out.str();
}

std::string RenderCrossTargetJson(const CrossTargetReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("on_prem_monthly").Number(report.on_prem_monthly);
  if (report.best_index >= 0) {
    json.Key("best").BeginObject();
    json.Key("target").String(report.targets[report.best_index].target_id);
    json.Key("pricing_model")
        .String(catalog::PricingModelName(report.best_model));
    json.Key("monthly_cost").Number(report.best_monthly);
    json.EndObject();
  } else {
    json.Key("best").Null();
  }
  json.Key("targets").BeginArray();
  for (const TargetAssessment& target : report.targets) {
    json.BeginObject();
    json.Key("id").String(target.target_id);
    json.Key("display_name").String(target.display_name);
    json.Key("ok").Bool(target.status.ok());
    if (!target.status.ok()) {
      json.Key("error").String(std::string(target.status.message()));
    } else {
      json.Key("recommendation").BeginObject();
      json.Key("sku").String(target.recommendation.sku.id);
      json.Key("display_name")
          .String(target.recommendation.sku.DisplayName());
      json.Key("monthly_cost").Number(target.recommendation.monthly_cost);
      json.Key("throttling_probability")
          .Number(target.recommendation.throttling_probability);
      json.EndObject();
      json.Key("pricing").BeginArray();
      for (const TargetPricingEstimate& estimate : target.pricing) {
        json.BeginObject();
        json.Key("model").String(catalog::PricingModelName(estimate.model));
        json.Key("monthly_cost").Number(estimate.monthly_cost);
        json.Key("throttling_probability")
            .Number(estimate.throttling_probability);
        if (!estimate.detail.empty()) {
          json.Key("detail").String(estimate.detail);
        }
        json.EndObject();
      }
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace doppler::dma
