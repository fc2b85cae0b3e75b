#include "core/profiler.h"

#include <cmath>

namespace doppler::core {

int GroupIdFromBits(const std::vector<bool>& negotiable) {
  int id = 0;
  for (std::size_t i = 0; i < negotiable.size(); ++i) {
    if (!negotiable[i]) id |= 1 << i;
  }
  return id;
}

std::vector<int> GroupBits(int group_id, std::size_t num_dims) {
  std::vector<int> bits(num_dims, 0);
  for (std::size_t i = 0; i < num_dims; ++i) {
    bits[i] = (group_id >> i) & 1;
  }
  return bits;
}

CustomerProfiler::CustomerProfiler(
    std::shared_ptr<NegotiabilityStrategy> strategy,
    std::vector<catalog::ResourceDim> dims)
    : strategy_(std::move(strategy)), dims_(std::move(dims)) {}

StatusOr<CustomerProfile> CustomerProfiler::Profile(
    const telemetry::PerfTrace& trace) const {
  if (strategy_ == nullptr) {
    return FailedPreconditionError("profiler has no strategy");
  }
  CustomerProfile profile;
  DOPPLER_ASSIGN_OR_RETURN(profile.summary,
                           strategy_->Evaluate(trace, dims_));
  profile.group_id = GroupIdFromBits(profile.summary.negotiable);
  return profile;
}

StatusOr<GroupModel> GroupModel::Fit(
    const std::vector<std::pair<int, double>>& chosen) {
  if (chosen.empty()) {
    return InvalidArgumentError("cannot fit a group model on no customers");
  }
  GroupModel model;
  std::map<int, std::vector<double>> by_group;
  double total = 0.0;
  for (const auto& [group, probability] : chosen) {
    by_group[group].push_back(probability);
    total += probability;
  }
  model.global_mean_ = total / static_cast<double>(chosen.size());
  for (const auto& [group, probabilities] : by_group) {
    GroupStats stats;
    stats.group_id = group;
    stats.count = static_cast<int>(probabilities.size());
    double sum = 0.0;
    for (double p : probabilities) sum += p;
    stats.mean_probability = sum / static_cast<double>(probabilities.size());
    double sq = 0.0;
    for (double p : probabilities) {
      const double d = p - stats.mean_probability;
      sq += d * d;
    }
    stats.std_probability =
        std::sqrt(sq / static_cast<double>(probabilities.size()));
    stats.mean_score = 1.0 - stats.mean_probability;
    model.groups_[group] = stats;
  }
  return model;
}

StatusOr<GroupModel> GroupModel::FitWithPrior(
    const std::vector<std::pair<int, double>>& fresh, const GroupModel& prior,
    double prior_weight) {
  if (prior_weight < 0.0) {
    return InvalidArgumentError("prior weight must be non-negative");
  }
  if (fresh.empty()) return prior;
  DOPPLER_ASSIGN_OR_RETURN(GroupModel fresh_model, Fit(fresh));

  GroupModel blended;
  // Start from the prior's groups; blend or keep.
  for (const auto& [group, prior_stats] : prior.groups_) {
    const auto it = fresh_model.groups_.find(group);
    if (it == fresh_model.groups_.end()) {
      blended.groups_[group] = prior_stats;
      continue;
    }
    const GroupStats& fresh_stats = it->second;
    GroupStats merged = fresh_stats;
    const double denominator =
        prior_weight + static_cast<double>(fresh_stats.count);
    merged.mean_probability =
        (prior_weight * prior_stats.mean_probability +
         static_cast<double>(fresh_stats.count) *
             fresh_stats.mean_probability) /
        denominator;
    merged.mean_score = 1.0 - merged.mean_probability;
    merged.count = prior_stats.count + fresh_stats.count;
    blended.groups_[group] = merged;
  }
  // Groups only seen in the fresh data enter as-is.
  for (const auto& [group, fresh_stats] : fresh_model.groups_) {
    if (blended.groups_.find(group) == blended.groups_.end()) {
      blended.groups_[group] = fresh_stats;
    }
  }
  const double total_fresh = static_cast<double>(fresh.size());
  blended.global_mean_ =
      (prior_weight * prior.global_mean_ +
       total_fresh * fresh_model.global_mean_) /
      (prior_weight + total_fresh);
  return blended;
}

StatusOr<GroupModel> GroupModel::FromStats(std::vector<GroupStats> stats,
                                           double global_mean) {
  if (stats.empty()) {
    return InvalidArgumentError("group model needs at least one group");
  }
  GroupModel model;
  model.global_mean_ = global_mean;
  for (GroupStats& group : stats) {
    if (model.groups_.find(group.group_id) != model.groups_.end()) {
      return InvalidArgumentError("duplicate group id " +
                                  std::to_string(group.group_id));
    }
    group.mean_score = 1.0 - group.mean_probability;
    model.groups_[group.group_id] = std::move(group);
  }
  return model;
}

double GroupModel::TargetProbability(int group_id) const {
  const auto it = groups_.find(group_id);
  if (it == groups_.end()) return global_mean_;
  return it->second.mean_probability;
}

std::vector<GroupStats> GroupModel::AllGroups() const {
  std::vector<GroupStats> all;
  all.reserve(groups_.size());
  for (const auto& [_, stats] : groups_) all.push_back(stats);
  return all;
}

}  // namespace doppler::core
