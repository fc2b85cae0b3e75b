#ifndef DOPPLER_CORE_PROFILER_H_
#define DOPPLER_CORE_PROFILER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/sku.h"
#include "core/negotiability.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::core {

/// A customer's workload profile: the negotiability summary plus the group
/// the customer enumerates into (paper Eq. 2: group membership is a
/// function of per-dimension negotiability).
struct CustomerProfile {
  NegotiabilityScores summary;
  /// Enumeration group id: bit i set iff dimension i (profile order) is
  /// NON-negotiable, so id 0 = fully negotiable, matching Table 3 where
  /// "0 denotes negotiable" and group 1 is (0,0,0).
  int group_id = 0;

  /// Number of dimensions profiled.
  std::size_t num_dims() const { return summary.dims.size(); }
};

/// Turns negotiable flags into the enumeration group id (bit per
/// non-negotiable dimension, profile order).
int GroupIdFromBits(const std::vector<bool>& negotiable);

/// Renders a group id back into 0/1 flags per dimension (0 = negotiable),
/// e.g. for printing Table 3 rows.
std::vector<int> GroupBits(int group_id, std::size_t num_dims);

/// Profiles customers with a chosen negotiability strategy and straight
/// 2^k enumeration — the configuration deployed in DMA (paper §5.2.1:
/// "the final strategy deployed in production utilizes the thresholding
/// algorithm, then employs straightforward enumeration").
class CustomerProfiler {
 public:
  /// `dims` are the profiling dimensions (ProfilingDims(deployment)).
  CustomerProfiler(std::shared_ptr<NegotiabilityStrategy> strategy,
                   std::vector<catalog::ResourceDim> dims);

  /// Profiles one performance history.
  StatusOr<CustomerProfile> Profile(const telemetry::PerfTrace& trace) const;

  const std::vector<catalog::ResourceDim>& dims() const { return dims_; }
  const NegotiabilityStrategy& strategy() const { return *strategy_; }

 private:
  std::shared_ptr<NegotiabilityStrategy> strategy_;
  std::vector<catalog::ResourceDim> dims_;
};

/// Per-group statistics over the migrated fleet: where customers of this
/// group fix their SKUs on their price-performance curves (paper Eq. 3 and
/// Table 3). "Score" is 1 - throttling probability of the chosen SKU.
struct GroupStats {
  int group_id = 0;
  int count = 0;
  double mean_probability = 0.0;  ///< Mean chosen-SKU throttling prob.
  double std_probability = 0.0;
  double mean_score = 1.0;        ///< 1 - mean_probability.
};

/// The learned mapping group -> typical chosen throttling probability,
/// fitted offline from migrated customers and shipped as static input to
/// the DMA tool (paper §4).
class GroupModel {
 public:
  /// Fits from (group id, chosen-SKU throttling probability) pairs.
  /// Fails on an empty sample.
  static StatusOr<GroupModel> Fit(
      const std::vector<std::pair<int, double>>& chosen);

  /// Fits from fresh pairs blended with a prior model: each group's target
  /// becomes (prior_weight * prior + n_g * mean_g) / (prior_weight + n_g),
  /// so a handful of new observations nudges rather than replaces the
  /// shipped profile (the §5.5 feedback-loop retraining step). Groups with
  /// no fresh data keep the prior's stats.
  static StatusOr<GroupModel> FitWithPrior(
      const std::vector<std::pair<int, double>>& fresh,
      const GroupModel& prior, double prior_weight);

  /// Reconstructs a model from previously computed statistics (the
  /// persistence path: DMA ships profiles as static files, §4). Fails on
  /// an empty stats list or duplicate group ids.
  static StatusOr<GroupModel> FromStats(std::vector<GroupStats> stats,
                                        double global_mean);

  /// Target probability for a group (paper Eq. 3). Unseen groups fall back
  /// to the global mean across all training customers.
  double TargetProbability(int group_id) const;

  /// Stats per observed group, ordered by group id.
  std::vector<GroupStats> AllGroups() const;

  /// Global mean chosen probability (the fallback).
  double global_mean() const { return global_mean_; }

 private:
  std::map<int, GroupStats> groups_;
  double global_mean_ = 0.0;
};

}  // namespace doppler::core

#endif  // DOPPLER_CORE_PROFILER_H_
