#include "dma/resource_report.h"

#include <sstream>

#include "core/negotiability.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "util/ascii_plot.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/population.h"

namespace doppler::dma {

std::string RenderUsageReport(const telemetry::PerfTrace& trace) {
  std::ostringstream out;
  out << "Resource usage over " << FormatDouble(trace.DurationDays(), 1)
      << " days (" << trace.num_samples() << " samples @ "
      << trace.interval_seconds() << "s)\n\n";

  TablePrinter summary(
      {"Dimension", "Mean", "P50", "P95", "Max", "StdDev", "ECDF AUC"});
  for (catalog::ResourceDim dim : trace.PresentDims()) {
    const std::vector<double>& values = trace.Values(dim);
    summary.AddRow({catalog::ResourceDimName(dim),
                    FormatDouble(stats::Mean(values), 2),
                    FormatDouble(stats::Median(values), 2),
                    FormatDouble(stats::Quantile(values, 0.95), 2),
                    FormatDouble(stats::Max(values), 2),
                    FormatDouble(stats::StdDev(values), 2),
                    FormatDouble(stats::Ecdf(values).NormalizedAuc(), 3)});
  }
  out << summary.ToString() << "\n";

  for (catalog::ResourceDim dim : trace.PresentDims()) {
    PlotOptions options;
    options.title = std::string("-- ") + catalog::ResourceDimName(dim) +
                    " over time --";
    options.height = 10;
    out << LinePlot(trace.Values(dim), options) << "\n";
  }
  return out.str();
}

std::string RenderCurveReport(const core::PricePerformanceCurve& curve,
                              int max_rows) {
  std::ostringstream out;
  out << "Price-performance curve (" << curve.size() << " relevant SKUs, "
      << core::CurveShapeName(curve.Classify()) << " shape)\n";

  TablePrinter table({"SKU", "Monthly price", "Throttling prob",
                      "Performance"});
  const auto& points = curve.points();
  const std::size_t rows =
      std::min<std::size_t>(points.size(), static_cast<std::size_t>(max_rows));
  // Sample evenly across the curve when it is longer than the row budget.
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = rows <= 1 ? 0 : r * (points.size() - 1) / (rows - 1);
    const core::PricePerformancePoint& point = points[i];
    table.AddRow({point.sku.DisplayName(),
                  FormatDollars(point.monthly_price),
                  FormatPercent(point.MonotoneProbability(), 2),
                  FormatPercent(point.performance, 1)});
  }
  out << table.ToString() << "\n";

  PlotOptions plot;
  plot.title = "performance (fraction of needs met) vs monthly price";
  plot.height = 12;
  out << ScatterPlot(curve.Prices(), curve.Performances(), plot);
  return out.str();
}

std::string RenderRecommendationReport(const telemetry::PerfTrace& trace,
                                       const core::Recommendation& rec) {
  std::ostringstream out;
  out << "==================================================================\n";
  out << " Doppler recommendation for '" << trace.id() << "'\n";
  out << "==================================================================\n";
  out << " SKU:        " << rec.sku.DisplayName() << "\n";
  out << " Monthly:    " << FormatDollars(rec.monthly_cost) << "\n";
  out << " Throttling: " << FormatPercent(rec.throttling_probability, 2)
      << "\n";
  if (rec.group_id >= 0) {
    out << " Group:      " << rec.group_id + 1 << " (target "
        << FormatPercent(rec.group_target, 1) << ")\n";
  }
  out << " Why:        " << rec.rationale << "\n\n";
  out << RenderUsageReport(trace) << "\n";
  out << RenderCurveReport(rec.curve);
  return out.str();
}

std::string RenderNegotiabilityReport(const telemetry::PerfTrace& trace,
                                      catalog::Deployment deployment) {
  const std::vector<catalog::ResourceDim> dims =
      workload::ProfilingDims(deployment);
  std::ostringstream out;
  out << "Negotiability profile (" << catalog::DeploymentName(deployment)
      << " dimensions)\n";
  TablePrinter table({"Dimension", "Thresholding", "MinMax AUC", "Max AUC",
                      "Outlier %", "Verdict"});
  const core::ThresholdingStrategy thresholding;
  const core::MinMaxAucStrategy minmax;
  const core::MaxAucStrategy max_auc;
  const core::OutlierPercentageStrategy outlier;
  StatusOr<core::NegotiabilityScores> t = thresholding.Evaluate(trace, dims);
  StatusOr<core::NegotiabilityScores> mm = minmax.Evaluate(trace, dims);
  StatusOr<core::NegotiabilityScores> mx = max_auc.Evaluate(trace, dims);
  StatusOr<core::NegotiabilityScores> ol = outlier.Evaluate(trace, dims);
  if (!t.ok() || !mm.ok() || !mx.ok() || !ol.ok()) {
    return "(negotiability profile unavailable: trace has no usable "
           "profiling dimensions)\n";
  }
  for (std::size_t i = 0; i < dims.size(); ++i) {
    table.AddRow({catalog::ResourceDimName(dims[i]),
                  FormatDouble(t->scores[i], 3),
                  FormatDouble(mm->scores[i], 3),
                  FormatDouble(mx->scores[i], 3),
                  FormatDouble(ol->scores[i], 3),
                  t->negotiable[i] ? "negotiable" : "non-negotiable"});
  }
  out << table.ToString();
  return out.str();
}

namespace {

// Serialises one curve point.
void WriteCurvePoint(JsonWriter& json, const core::PricePerformancePoint& p) {
  json.BeginObject();
  json.Key("sku_id").String(p.sku.id);
  json.Key("display_name").String(p.sku.DisplayName());
  json.Key("monthly_price").Number(p.monthly_price);
  json.Key("throttling_probability").Number(p.MonotoneProbability());
  json.Key("performance").Number(p.performance);
  json.EndObject();
}

void WriteRecommendation(JsonWriter& json, const core::Recommendation& rec,
                         bool include_curve) {
  json.BeginObject();
  json.Key("sku_id").String(rec.sku.id);
  json.Key("display_name").String(rec.sku.DisplayName());
  json.Key("monthly_cost").Number(rec.monthly_cost);
  json.Key("throttling_probability").Number(rec.throttling_probability);
  json.Key("curve_shape").String(core::CurveShapeName(rec.curve_shape));
  if (rec.group_id >= 0) {
    json.Key("group").Int(rec.group_id + 1);
    json.Key("group_target_probability").Number(rec.group_target);
  }
  json.Key("rationale").String(rec.rationale);
  if (rec.degraded) {
    json.Key("degraded").Bool(true);
    json.Key("missing_profile_dims").BeginArray();
    for (catalog::ResourceDim dim : rec.missing_profile_dims) {
      json.String(catalog::ResourceDimName(dim));
    }
    json.EndArray();
  }
  if (include_curve) {
    json.Key("curve").BeginArray();
    for (const core::PricePerformancePoint& point : rec.curve.points()) {
      WriteCurvePoint(json, point);
    }
    json.EndArray();
  }
  json.EndObject();
}

// Serialises the telemetry quality gate's report: the defect trail, the
// degraded-mode assessment, and the one-line summary the UI surfaces.
void WriteQualityReport(JsonWriter& json,
                        const quality::TraceQualityReport& report) {
  json.BeginObject();
  json.Key("policy").String(quality::QualityPolicyName(report.policy));
  json.Key("clean").Bool(report.clean());
  json.Key("total_defects").Int(report.TotalDefects());
  json.Key("repaired_defects").Int(report.RepairedDefects());
  json.Key("samples_in").Int(report.samples_in);
  json.Key("samples_out").Int(report.samples_out);
  json.Key("defects").BeginArray();
  for (const quality::QualityDefect& defect : report.defects) {
    json.BeginObject();
    json.Key("class").String(quality::DefectClassName(defect.defect));
    json.Key("count").Int(defect.count);
    json.Key("repaired").Bool(defect.repaired);
    if (!defect.detail.empty()) json.Key("detail").String(defect.detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("degraded").Bool(report.degraded);
  if (report.degraded) {
    json.Key("missing_dims").BeginArray();
    for (catalog::ResourceDim dim : report.missing_dims) {
      json.String(catalog::ResourceDimName(dim));
    }
    json.EndArray();
    json.Key("assessed_dims").BeginArray();
    for (catalog::ResourceDim dim : report.assessed_dims) {
      json.String(catalog::ResourceDimName(dim));
    }
    json.EndArray();
    json.Key("confidence_penalty").Number(report.confidence_penalty);
  }
  json.Key("summary").String(report.Summary());
  json.EndObject();
}

}  // namespace

std::string RenderAssessmentJson(const AssessmentOutcome& outcome) {
  return RenderAssessmentJson(outcome, AssessmentJsonOptions());
}

std::string RenderAssessmentJson(const AssessmentOutcome& outcome,
                                 const AssessmentJsonOptions& options) {
  JsonWriter json;
  json.BeginObject();
  json.Key("customer_id").String(outcome.customer_id);
  json.Key("samples").Int(
      static_cast<long long>(outcome.instance_trace.num_samples()));
  json.Key("duration_days").Number(outcome.instance_trace.DurationDays());

  json.Key("quality");
  WriteQualityReport(json, outcome.quality);

  json.Key("stage_timings").BeginArray();
  for (const StageTiming& timing : outcome.stage_timings) {
    json.BeginObject();
    json.Key("stage").String(timing.stage);
    if (options.include_stage_seconds) {
      json.Key("seconds").Number(timing.seconds);
    }
    json.EndObject();
  }
  json.EndArray();

  json.Key("elastic");
  WriteRecommendation(json, outcome.elastic, /*include_curve=*/true);

  json.Key("baseline");
  if (outcome.baseline.ok()) {
    WriteRecommendation(json, *outcome.baseline, /*include_curve=*/false);
  } else {
    json.BeginObject();
    json.Key("error").String(outcome.baseline.status().ToString());
    json.EndObject();
  }

  if (outcome.confidence.has_value()) {
    json.Key("confidence").BeginObject();
    json.Key("score").Number(outcome.confidence->score);
    json.Key("runs").Int(outcome.confidence->runs);
    json.Key("matching_runs").Int(outcome.confidence->matching_runs);
    json.EndObject();
  }
  {
    const std::vector<catalog::ResourceDim> dims =
        workload::ProfilingDims(outcome.target);
    const core::ThresholdingStrategy thresholding;
    StatusOr<core::NegotiabilityScores> profile =
        thresholding.Evaluate(outcome.instance_trace, dims);
    if (profile.ok()) {
      json.Key("negotiability").BeginArray();
      for (std::size_t i = 0; i < dims.size(); ++i) {
        json.BeginObject();
        json.Key("dimension").String(catalog::ResourceDimName(dims[i]));
        json.Key("score").Number(profile->scores[i]);
        json.Key("negotiable").Bool(profile->negotiable[i]);
        json.EndObject();
      }
      json.EndArray();
    }
  }
  if (outcome.rightsizing.has_value()) {
    json.Key("rightsizing").BeginObject();
    json.Key("over_provisioned").Bool(outcome.rightsizing->over_provisioned);
    json.Key("price_headroom").Number(outcome.rightsizing->price_headroom);
    json.Key("recommended_sku_id")
        .String(outcome.rightsizing->recommended.sku.id);
    json.Key("monthly_savings").Number(outcome.rightsizing->monthly_savings);
    json.Key("annual_savings").Number(outcome.rightsizing->annual_savings);
    json.EndObject();
  } else if (!outcome.rightsizing_skip_reason.empty()) {
    // Right-sizing was requested but produced no assessment; the reason
    // must survive into the report rather than silently vanishing.
    json.Key("rightsizing_skipped").String(outcome.rightsizing_skip_reason);
  }
  json.EndObject();
  return json.str();
}

std::string RenderFleetSlotJson(const std::string& customer_id,
                                const StatusOr<AssessmentOutcome>& outcome,
                                const AssessmentJsonOptions& options) {
  if (outcome.ok()) return RenderAssessmentJson(*outcome, options);
  // Failed slots carry a machine-readable status so batch callers can
  // route on the code without parsing prose.
  JsonWriter error;
  error.BeginObject();
  error.Key("customer_id").String(customer_id);
  error.Key("status").BeginObject();
  error.Key("code").String(StatusCodeToString(outcome.status().code()));
  error.Key("message").String(outcome.status().message());
  error.EndObject();
  error.EndObject();
  return error.str();
}

std::string JoinFleetAssessmentJson(const std::vector<std::string>& slots,
                                    std::size_t succeeded) {
  // Slot documents are spliced into the array verbatim (the writer emits
  // compact JSON, so concatenation stays well-formed).
  std::string out = "{\"fleet_size\":" + std::to_string(slots.size()) +
                    ",\"succeeded\":" + std::to_string(succeeded) +
                    ",\"failed\":" +
                    std::to_string(slots.size() - succeeded) +
                    ",\"assessments\":[";
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out += ",";
    out += slots[i];
  }
  out += "]}";
  return out;
}

std::string RenderFleetAssessmentJson(
    const std::vector<std::string>& customer_ids,
    const std::vector<StatusOr<AssessmentOutcome>>& outcomes,
    const AssessmentJsonOptions& options) {
  std::vector<std::string> slots;
  slots.reserve(outcomes.size());
  std::size_t succeeded = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    succeeded += outcomes[i].ok();
    slots.push_back(RenderFleetSlotJson(
        i < customer_ids.size() ? customer_ids[i] : "", outcomes[i], options));
  }
  return JoinFleetAssessmentJson(slots, succeeded);
}

}  // namespace doppler::dma
