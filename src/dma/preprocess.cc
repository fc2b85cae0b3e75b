#include "dma/preprocess.h"

#include "core/backtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "workload/population.h"

namespace doppler::dma {

StatusOr<telemetry::PerfTrace> DataPreprocessingModule::PrepareDatabaseTrace(
    const telemetry::PerfTrace& raw) const {
  if (raw.interval_seconds() == output_interval_seconds_) return raw;
  return telemetry::ResampleTrace(raw, output_interval_seconds_);
}

StatusOr<telemetry::PerfTrace> DataPreprocessingModule::PrepareInstanceTrace(
    const std::vector<telemetry::PerfTrace>& raw_databases,
    const quality::GateOptions* gate,
    quality::TraceQualityReport* report) const {
  static obs::Counter* const kDatabases =
      obs::DefaultMetrics().GetCounter("preprocess.databases");
  static obs::Counter* const kSamplesIn =
      obs::DefaultMetrics().GetCounter("preprocess.samples_in");
  quality::GateOptions per_database;
  if (gate != nullptr) {
    per_database = *gate;
    // Expected dimensions are judged once on the instance rollup; a single
    // database legitimately misses dimensions its siblings carry.
    per_database.expected_dims.clear();
  }
  std::vector<telemetry::PerfTrace> prepared;
  prepared.reserve(raw_databases.size());
  for (const telemetry::PerfTrace& raw : raw_databases) {
    DOPPLER_TRACE_SPAN("preprocess.database");
    kDatabases->Increment();
    kSamplesIn->Increment(raw.num_samples());
    if (gate == nullptr) {
      DOPPLER_ASSIGN_OR_RETURN(telemetry::PerfTrace trace,
                               PrepareDatabaseTrace(raw));
      prepared.push_back(std::move(trace));
      continue;
    }
    DOPPLER_ASSIGN_OR_RETURN(quality::GatedTrace gated,
                             quality::GateTrace(raw, per_database));
    if (report != nullptr) report->MergeFrom(gated.report);
    DOPPLER_ASSIGN_OR_RETURN(telemetry::PerfTrace trace,
                             PrepareDatabaseTrace(gated.trace));
    prepared.push_back(std::move(trace));
  }
  DOPPLER_TRACE_SPAN("preprocess.rollup");
  StatusOr<telemetry::PerfTrace> instance =
      telemetry::RollupToInstance(prepared);
  if (instance.ok()) {
    static obs::Counter* const kSamplesOut =
        obs::DefaultMetrics().GetCounter("preprocess.samples_out");
    kSamplesOut->Increment(instance->num_samples());
    DOPPLER_LOG(kDebug) << "rolled " << prepared.size()
                        << " database traces into " << instance->num_samples()
                        << " instance samples";
  }
  return instance;
}

StatusOr<core::GroupModel> FitGroupModelOffline(
    const catalog::SkuCatalog& catalog, const catalog::PricingService& pricing,
    const core::ThrottlingEstimator& estimator,
    catalog::Deployment deployment, int num_customers, std::uint64_t seed) {
  workload::PopulationOptions population_options;
  population_options.num_customers = num_customers;
  population_options.deployment = deployment;
  population_options.seed = seed;
  DOPPLER_ASSIGN_OR_RETURN(std::vector<workload::SyntheticCustomer> fleet,
                           workload::GeneratePopulation(population_options));

  Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(catalog, &pricing);
  DOPPLER_ASSIGN_OR_RETURN(
      core::BacktestDataset dataset,
      core::BuildBacktestDataset(std::move(fleet), compiled, estimator, &rng));

  const core::ThresholdingStrategy strategy;
  const std::vector<catalog::ResourceDim> dims =
      workload::ProfilingDims(deployment);

  std::vector<std::pair<int, double>> training;
  for (const core::LabeledCustomer& labeled : dataset.customers) {
    if (labeled.customer.over_provisioned) continue;  // Not "optimal" choices.
    // Flat curves carry no tolerance signal (any choice is ~0 throttling).
    if (labeled.curve_shape == core::CurveShape::kFlat) continue;
    DOPPLER_ASSIGN_OR_RETURN(core::NegotiabilityScores summary,
                             strategy.Evaluate(labeled.customer.trace, dims));
    training.emplace_back(core::GroupIdFromBits(summary.negotiable),
                          labeled.chosen_probability);
  }
  return core::GroupModel::Fit(training);
}

}  // namespace doppler::dma
