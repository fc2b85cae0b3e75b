#ifndef DOPPLER_DMA_PREPROCESS_H_
#define DOPPLER_DMA_PREPROCESS_H_

#include <vector>

#include "catalog/catalog.h"
#include "catalog/pricing.h"
#include "core/profiler.h"
#include "core/throttling.h"
#include "quality/quality_gate.h"
#include "telemetry/aggregate.h"
#include "telemetry/perf_trace.h"
#include "util/statusor.h"

namespace doppler::dma {

/// The Data Preprocessing Module (paper §4): turns raw collector output
/// into the 10-minute, instance-level format the recommendation engine
/// ingests — the step the baseline never needed because it collapsed
/// everything to one scalar.
class DataPreprocessingModule {
 public:
  explicit DataPreprocessingModule(
      std::int64_t output_interval_seconds = telemetry::kDmaIntervalSeconds)
      : output_interval_seconds_(output_interval_seconds) {}

  /// Re-bins one database's raw counters to the engine cadence.
  StatusOr<telemetry::PerfTrace> PrepareDatabaseTrace(
      const telemetry::PerfTrace& raw) const;

  /// Re-bins every database then rolls them up to one instance trace. With
  /// `gate`, each raw database trace first passes the cell-level telemetry
  /// gate (NaN/Inf, negative counters, dead series) and what it finds is
  /// folded into `report` (may be null); without, the traces were gated at
  /// ingest and are not gated twice. Degraded mode is deliberately NOT
  /// assessed here: expected dimensions are judged once on the instance
  /// rollup, not per database.
  StatusOr<telemetry::PerfTrace> PrepareInstanceTrace(
      const std::vector<telemetry::PerfTrace>& raw_databases,
      const quality::GateOptions* gate = nullptr,
      quality::TraceQualityReport* report = nullptr) const;

 private:
  std::int64_t output_interval_seconds_;
};

/// The static inputs the DMA tool ships with (paper §4: "relevant SKU
/// resource limits and customer profiles ... are calculated offline and
/// saved in the application as static input").
struct StaticInputs {
  catalog::SkuCatalog catalog;
  core::GroupModel group_model;
};

/// Fits the shipped group model offline from a labelled migrated fleet:
/// generate a fleet for `deployment`, assign chosen SKUs, profile with the
/// production thresholding strategy, and record per-group chosen
/// throttling probabilities. `num_customers` trades fidelity for runtime.
StatusOr<core::GroupModel> FitGroupModelOffline(
    const catalog::SkuCatalog& catalog, const catalog::PricingService& pricing,
    const core::ThrottlingEstimator& estimator,
    catalog::Deployment deployment, int num_customers = 150,
    std::uint64_t seed = 11);

}  // namespace doppler::dma

#endif  // DOPPLER_DMA_PREPROCESS_H_
