#include "core/backtest.h"

#include <algorithm>
#include <cmath>

#include "core/mi_filter.h"
#include "ml/hierarchical.h"
#include "ml/kmeans.h"

namespace doppler::core {

namespace {

using catalog::Deployment;
using catalog::ServiceTier;

// Picks the over-provisioned choice: the first point whose price reaches
// `ratio` times the cheapest fully satisfying point's price, itself fully
// satisfying (over-provisioned customers buy too much, not too little).
StatusOr<PricePerformancePoint> OverProvisionedChoice(
    const PricePerformanceCurve& curve, double ratio) {
  // Anchor at the cheapest fully satisfying SKU; when the workload cannot
  // be fully satisfied by any SKU (e.g. log-rate demand above every cap),
  // anchor at the cheapest point reaching the curve's best performance —
  // an over-provisioned customer overshoots whatever the best buy is.
  StatusOr<PricePerformancePoint> anchor = curve.CheapestFullySatisfying();
  if (!anchor.ok()) {
    if (curve.empty()) return NotFoundError("curve is empty");
    double best_performance = 0.0;
    for (const PricePerformancePoint& point : curve.points()) {
      best_performance = std::max(best_performance, point.performance);
    }
    for (const PricePerformancePoint& point : curve.points()) {
      if (point.performance >= best_performance) {
        anchor = point;
        break;
      }
    }
  }
  for (const PricePerformancePoint& point : curve.points()) {
    if (point.monthly_price >= anchor->monthly_price * ratio &&
        point.performance >= anchor->performance) {
      return point;
    }
  }
  return curve.points().back();
}

}  // namespace

StatusOr<BacktestDataset> BuildBacktestDataset(
    std::vector<workload::SyntheticCustomer> fleet,
    const catalog::CompiledCatalog& compiled,
    const ThrottlingEstimator& estimator, Rng* rng) {
  if (fleet.empty()) return InvalidArgumentError("fleet is empty");
  if (rng == nullptr) return InvalidArgumentError("rng must not be null");

  BacktestDataset dataset;
  dataset.deployment = fleet.front().deployment;
  dataset.customers.reserve(fleet.size());
  dataset.curves.reserve(fleet.size());

  for (workload::SyntheticCustomer& customer : fleet) {
    PricePerformanceCurve curve;
    if (customer.deployment == Deployment::kSqlDb) {
      DOPPLER_ASSIGN_OR_RETURN(
          curve, PricePerformanceCurve::Build(
                     customer.trace,
                     compiled.ForDeployment(Deployment::kSqlDb).view(),
                     compiled.pricing(), estimator));
    } else {
      DOPPLER_ASSIGN_OR_RETURN(
          MiCompiledFilterResult filtered,
          FilterMiCandidates(compiled, customer.layout, customer.trace));
      DOPPLER_ASSIGN_OR_RETURN(
          curve, PricePerformanceCurve::Build(
                     customer.trace, filtered.candidates, compiled.pricing(),
                     estimator, nullptr, &compiled.target()));
    }

    LabeledCustomer labeled;
    labeled.curve_shape = curve.Classify();

    PricePerformancePoint chosen;
    if (customer.over_provisioned) {
      DOPPLER_ASSIGN_OR_RETURN(
          chosen, OverProvisionedChoice(curve, rng->Uniform(2.0, 5.0)));
    } else if (labeled.curve_shape == CurveShape::kFlat) {
      DOPPLER_ASSIGN_OR_RETURN(chosen, curve.CheapestFullySatisfying());
    } else {
      DOPPLER_ASSIGN_OR_RETURN(chosen,
                               curve.ClosestBelowTarget(customer.tolerance));
    }
    labeled.chosen_sku_id = chosen.sku.id;
    labeled.chosen_probability = chosen.MonotoneProbability();
    labeled.chosen_tier = chosen.sku.tier;
    labeled.customer = std::move(customer);

    dataset.customers.push_back(std::move(labeled));
    dataset.curves.push_back(std::move(curve));
  }
  return dataset;
}

const char* GroupingMethodName(GroupingMethod method) {
  switch (method) {
    case GroupingMethod::kEnumeration:
      return "enumeration";
    case GroupingMethod::kKMeans:
      return "k-means";
    case GroupingMethod::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

StatusOr<BacktestResult> RunBacktest(const BacktestDataset& dataset,
                                     const NegotiabilityStrategy& strategy,
                                     const BacktestOptions& options) {
  if (dataset.customers.empty()) {
    return InvalidArgumentError("dataset is empty");
  }
  const std::vector<catalog::ResourceDim> dims =
      workload::ProfilingDims(dataset.deployment);

  // Indices of customers under evaluation.
  std::vector<std::size_t> evaluated;
  for (std::size_t i = 0; i < dataset.customers.size(); ++i) {
    if (options.exclude_over_provisioned &&
        dataset.customers[i].customer.over_provisioned) {
      continue;
    }
    evaluated.push_back(i);
  }
  if (evaluated.empty()) {
    return FailedPreconditionError("no customers left to evaluate");
  }

  // Summarise every evaluated customer.
  std::vector<NegotiabilityScores> summaries(dataset.customers.size());
  for (std::size_t i : evaluated) {
    DOPPLER_ASSIGN_OR_RETURN(
        summaries[i],
        options.grouping == GroupingMethod::kEnumeration
            ? strategy.Evaluate(dataset.customers[i].customer.trace, dims)
            : strategy.EvaluateForClustering(
                  dataset.customers[i].customer.trace, dims));
  }

  // Group assignment.
  std::vector<int> groups(dataset.customers.size(), 0);
  const int default_clusters = 1 << dims.size();
  const int k =
      options.num_clusters > 0 ? options.num_clusters : default_clusters;
  switch (options.grouping) {
    case GroupingMethod::kEnumeration:
      for (std::size_t i : evaluated) {
        groups[i] = GroupIdFromBits(summaries[i].negotiable);
      }
      break;
    case GroupingMethod::kKMeans: {
      std::vector<std::vector<double>> points;
      points.reserve(evaluated.size());
      for (std::size_t i : evaluated) points.push_back(summaries[i].scores);
      Rng rng(options.seed);
      ml::KMeansOptions kmeans_options;
      kmeans_options.k = k;
      DOPPLER_ASSIGN_OR_RETURN(ml::KMeansResult clustering,
                               ml::KMeans(points, kmeans_options, &rng));
      for (std::size_t j = 0; j < evaluated.size(); ++j) {
        groups[evaluated[j]] = clustering.assignments[j];
      }
      break;
    }
    case GroupingMethod::kHierarchical: {
      std::vector<std::vector<double>> points;
      points.reserve(evaluated.size());
      for (std::size_t i : evaluated) points.push_back(summaries[i].scores);
      DOPPLER_ASSIGN_OR_RETURN(std::vector<int> labels,
                               ml::HierarchicalCluster(points, k));
      for (std::size_t j = 0; j < evaluated.size(); ++j) {
        groups[evaluated[j]] = labels[j];
      }
      break;
    }
  }

  // Fit the group model on the evaluated customers (the paper's training
  // base: successfully migrated customers, over-provisioned excluded when
  // the experiment says so). Flat-curve customers are skipped: every
  // choice on a flat curve sits at ~0 throttling, so it carries no signal
  // about the group's tolerance and would drag every target to zero.
  std::vector<std::pair<int, double>> training;
  training.reserve(evaluated.size());
  for (std::size_t i : evaluated) {
    if (dataset.customers[i].curve_shape == CurveShape::kFlat) continue;
    training.emplace_back(groups[i], dataset.customers[i].chosen_probability);
  }
  if (training.empty()) {
    // Degenerate all-flat fleet: targets are irrelevant (every curve
    // short-circuits to the cheapest SKU), but the model must exist.
    for (std::size_t i : evaluated) {
      training.emplace_back(groups[i],
                            dataset.customers[i].chosen_probability);
    }
  }
  DOPPLER_ASSIGN_OR_RETURN(GroupModel model, GroupModel::Fit(training));

  // Score: does the Eq. 4-6 selection reproduce each chosen SKU?
  BacktestResult result;
  result.group_stats = model.AllGroups();
  for (std::size_t i : evaluated) {
    const PricePerformanceCurve& curve = dataset.curves[i];
    PricePerformancePoint picked;
    if (curve.Classify() == CurveShape::kFlat) {
      DOPPLER_ASSIGN_OR_RETURN(picked, curve.CheapestFullySatisfying());
    } else {
      DOPPLER_ASSIGN_OR_RETURN(
          picked, curve.ClosestBelowTarget(model.TargetProbability(groups[i])));
    }
    const bool match = picked.sku.id == dataset.customers[i].chosen_sku_id;
    ++result.evaluated;
    if (match) ++result.correct;
    TierAccuracy& tier = result.by_tier[dataset.customers[i].chosen_tier];
    ++tier.total;
    if (match) ++tier.correct;
  }
  result.accuracy =
      static_cast<double>(result.correct) / static_cast<double>(result.evaluated);
  for (auto& [_, tier] : result.by_tier) {
    tier.accuracy = tier.total > 0 ? static_cast<double>(tier.correct) /
                                         static_cast<double>(tier.total)
                                   : 0.0;
  }
  return result;
}

std::map<CurveShape, double> CurveShapeBreakdown(
    const BacktestDataset& dataset) {
  std::map<CurveShape, double> breakdown;
  if (dataset.customers.empty()) return breakdown;
  for (const LabeledCustomer& customer : dataset.customers) {
    breakdown[customer.curve_shape] += 1.0;
  }
  for (auto& [_, fraction] : breakdown) {
    fraction /= static_cast<double>(dataset.customers.size());
  }
  return breakdown;
}

}  // namespace doppler::core
