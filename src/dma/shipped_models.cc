#include "dma/shipped_models.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "catalog/pricing.h"
#include "core/throttling.h"
#include "dma/preprocess.h"
#include "obs/trace.h"

namespace doppler::dma {

namespace {

// One row of a shipped model, laid out like the group-model CSV: the global
// mean rides in a pseudo-row with group_id = -1.
struct ShippedRow {
  const char* target_id;
  catalog::Deployment deployment;
  int group_id;
  int count;
  double mean_probability;
  double std_probability;
};

constexpr ShippedRow kShippedRows[] = {
#include "dma/shipped_models.inc"
};

}  // namespace

StatusOr<core::GroupModel> DefaultGroupModel(const catalog::TargetSpec& spec,
                                             catalog::Deployment deployment) {
  const auto shipped = [&](const ShippedRow& row) {
    return spec.id == row.target_id && row.deployment == deployment;
  };
  if (catalog::TargetRegistry::BuiltIns().Find(spec.id) == &spec &&
      std::any_of(std::begin(kShippedRows), std::end(kShippedRows),
                  shipped)) {
    DOPPLER_TRACE_SPAN("dma.model_load");
    double global_mean = 0.0;
    std::vector<core::GroupStats> groups;
    for (const ShippedRow& row : kShippedRows) {
      if (!shipped(row)) continue;
      if (row.group_id < 0) {
        global_mean = row.mean_probability;
        continue;
      }
      core::GroupStats group;
      group.group_id = row.group_id;
      group.count = row.count;
      group.mean_probability = row.mean_probability;
      group.std_probability = row.std_probability;
      groups.push_back(group);
    }
    return core::GroupModel::FromStats(std::move(groups), global_mean);
  }
  DOPPLER_TRACE_SPAN("dma.model_fit");
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  return FitGroupModelOffline(spec.build_catalog(), pricing, estimator,
                              deployment, kDefaultTrainingCustomers,
                              kDefaultTrainingSeed);
}

}  // namespace doppler::dma
