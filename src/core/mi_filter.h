#ifndef DOPPLER_CORE_MI_FILTER_H_
#define DOPPLER_CORE_MI_FILTER_H_

#include <vector>

#include "catalog/catalog.h"
#include "catalog/compiled_catalog.h"
#include "catalog/file_layout.h"
#include "core/price_performance.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::core {

/// Knobs of the MI SKU filtration step (paper §3.2, "Determining file
/// storage tier for MI", Step 1). The 95% satisfaction rate "is chosen
/// based on file layout analysis of current on-cloud Azure SQL MI
/// resources" (paper footnote 2).
struct MiFilterOptions {
  /// Required fraction of storage need met (paper: "a minimum of 100%").
  double storage_satisfaction = 1.0;
  /// Required fraction of IOPS samples satisfied by the layout limits.
  double iops_satisfaction = 0.95;
  /// Required fraction of file-throughput samples satisfied.
  double throughput_satisfaction = 0.95;
  /// Throughput proxy: MiB moved per IO (the collector does not report
  /// file throughput directly, so it is derived as IOPS x IO size + log
  /// rate).
  double mib_per_io = 0.0625;  // 64 KiB pages.
};

/// Step 1 output: candidates borrow their CompiledEntry from the snapshot
/// (valid for its lifetime), in the snapshot's cheapest-first order, with
/// their effective IOPS limits already resolved (Step 2), ready for curve
/// building.
struct MiCompiledFilterResult {
  std::vector<CompiledCandidateRef> candidates;
  /// True when no General Purpose layout met the IOPS/throughput bar and
  /// the search was restricted to Business Critical (paper Step 1).
  bool restricted_to_bc = false;
  /// The storage-tier limits implied by the file layout.
  catalog::LayoutLimits layout_limits;
};

/// Runs Steps 1-2 for a workload migrating to SQL MI, over the snapshot's
/// pre-sorted MI view and its precomputed storage-tier table — no catalog
/// copy, no SKU copies:
///  1. Resolve each data file to its storage tier and sum the per-disk
///     IOPS/throughput limits.
///  2. Keep GP SKUs whose max data size covers the layout at 100% and
///     whose layout-derived limits satisfy >= 95% of the workload's IOPS
///     and throughput samples. If none qualifies, restrict to BC SKUs
///     (whose local-SSD limits come from the SKU record instead).
///  3. GP candidates carry the layout IOPS sum as their effective limit.
/// Fails when the catalog has no MI SKUs or the layout is unplaceable.
StatusOr<MiCompiledFilterResult> FilterMiCandidates(
    const catalog::CompiledCatalog& compiled,
    const catalog::FileLayout& layout, const telemetry::PerfTrace& trace,
    const MiFilterOptions& options = {});

}  // namespace doppler::core

#endif  // DOPPLER_CORE_MI_FILTER_H_
