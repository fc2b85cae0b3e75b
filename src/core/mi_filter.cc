#include "core/mi_filter.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace doppler::core {

namespace {

using catalog::Deployment;
using catalog::ResourceDim;
using catalog::ServiceTier;
using catalog::Sku;

// Fraction of samples where `values[i] <= limit`.
double SatisfiedFraction(const std::vector<double>& values, double limit) {
  if (values.empty()) return 1.0;
  std::size_t satisfied = 0;
  for (double v : values) {
    if (v <= limit) ++satisfied;
  }
  return static_cast<double>(satisfied) / static_cast<double>(values.size());
}

// Trace-derived requirements shared by both overloads: the storage need
// and whether the layout's premium-disk limits clear the paper's Step 1
// satisfaction bars for General Purpose.
struct MiRequirements {
  double storage_need = 0.0;
  bool gp_layout_ok = false;
};

MiRequirements ComputeMiRequirements(const telemetry::PerfTrace& trace,
                                     const catalog::LayoutLimits& limits,
                                     const MiFilterOptions& options) {
  MiRequirements req;

  // Storage requirement: the layout itself, or the observed allocated size
  // when the trace reports more.
  req.storage_need = limits.total_size_gib;
  if (trace.Has(ResourceDim::kStorageGb)) {
    const std::vector<double>& storage = trace.Values(ResourceDim::kStorageGb);
    req.storage_need = std::max(
        req.storage_need, *std::max_element(storage.begin(), storage.end()));
  }

  // Workload throughput proxy per sample: data IO volume plus log writes.
  std::vector<double> throughput_mibps;
  if (trace.Has(ResourceDim::kIops)) {
    const std::vector<double>& iops = trace.Values(ResourceDim::kIops);
    throughput_mibps.resize(iops.size());
    for (std::size_t i = 0; i < iops.size(); ++i) {
      throughput_mibps[i] = iops[i] * options.mib_per_io;
      if (trace.Has(ResourceDim::kLogRateMbps)) {
        throughput_mibps[i] += trace.Values(ResourceDim::kLogRateMbps)[i];
      }
    }
  }

  const double iops_ok =
      trace.Has(ResourceDim::kIops)
          ? SatisfiedFraction(trace.Values(ResourceDim::kIops),
                              limits.total_iops)
          : 1.0;
  const double throughput_ok =
      SatisfiedFraction(throughput_mibps, limits.total_throughput_mibps);

  req.gp_layout_ok = iops_ok >= options.iops_satisfaction &&
                     throughput_ok >= options.throughput_satisfaction;
  return req;
}

// Steps 1-3 keep/drop decision for one SKU; fills `iops_limit` with the
// effective override (negative = use the SKU record).
bool KeepMiCandidate(const Sku& sku, const MiRequirements& req,
                     const catalog::LayoutLimits& limits,
                     const MiFilterOptions& options, double* iops_limit) {
  // Storage must be met at 100% (options.storage_satisfaction of it).
  if (sku.max_data_gb < req.storage_need * options.storage_satisfaction) {
    return false;
  }
  if (sku.tier == ServiceTier::kGeneralPurpose) {
    if (!req.gp_layout_ok) return false;  // Step 1: GP dropped, BC only.
    // Step 2: the effective GP IOPS limit is the sum over the data files'
    // disks, never above the instance cap.
    *iops_limit = std::min(limits.total_iops, sku.max_iops);
  } else {
    // BC runs on local SSD; the SKU record's limits apply.
    *iops_limit = -1.0;
  }
  return true;
}

void CountMiFilterOutcome(std::size_t num_candidates, bool restricted_to_bc) {
  static obs::Counter* const kCandidates =
      obs::DefaultMetrics().GetCounter("ppm.mi_candidates");
  static obs::Counter* const kRestricted =
      obs::DefaultMetrics().GetCounter("ppm.mi_restricted_to_bc");
  kCandidates->Increment(num_candidates);
  if (restricted_to_bc) kRestricted->Increment();
}

}  // namespace

StatusOr<MiCompiledFilterResult> FilterMiCandidates(
    const catalog::CompiledCatalog& compiled, const catalog::FileLayout& layout,
    const telemetry::PerfTrace& trace, const MiFilterOptions& options) {
  if (trace.num_samples() == 0) {
    return InvalidArgumentError("performance trace is empty");
  }
  DOPPLER_TRACE_SPAN("ppm.mi_filter");
  DOPPLER_ASSIGN_OR_RETURN(catalog::LayoutLimits limits,
                           compiled.LayoutLimitsFor(layout));
  const MiRequirements req =
      ComputeMiRequirements(trace, limits, options);

  MiCompiledFilterResult result;
  result.layout_limits = limits;
  result.restricted_to_bc = !req.gp_layout_ok;

  const catalog::CompiledView mi_view =
      compiled.ForDeployment(Deployment::kSqlMi).view();
  if (mi_view.empty()) {
    return FailedPreconditionError("catalog contains no SQL MI SKUs");
  }

  for (const catalog::CompiledEntry& entry : mi_view) {
    double iops_limit = -1.0;
    if (KeepMiCandidate(*entry.sku, req, limits, options, &iops_limit)) {
      result.candidates.push_back({&entry, iops_limit});
    }
  }

  if (result.candidates.empty()) {
    return NotFoundError(
        "no MI SKU can host the layout (storage need " +
        std::to_string(req.storage_need) + " GB)");
  }
  CountMiFilterOutcome(result.candidates.size(), result.restricted_to_bc);
  return result;
}

}  // namespace doppler::core
