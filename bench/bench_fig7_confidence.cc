// Figure 7: "Confidence score based on bootstrapping samples."
//
// Illustrates the §3.4 mechanism: bootstrap sub-windows of the raw
// counters, rerun the whole recommendation per window, and report the
// agreement with the full-data recommendation. A stable workload pins its
// SKU across windows (score ~1); a volatile one scatters.

#include <cstdio>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/confidence.h"
#include "stats/bootstrap.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/generator.h"

using namespace doppler;
using catalog::ResourceDim;

namespace {

telemetry::PerfTrace MakeTrace(bool stable, std::uint64_t seed) {
  Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.name = stable ? "stable" : "volatile";
  if (stable) {
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::DailyPeriodic(3.0, 1.5, 0.02);
    spec.dims[ResourceDim::kIops] =
        workload::DimensionSpec::DailyPeriodic(1000.0, 500.0, 0.02);
  } else {
    // Strong trend + bursts: different windows see different workloads.
    spec.dims[ResourceDim::kCpu] =
        workload::DimensionSpec::Trending(1.0, 12.0, 0.10);
    workload::DimensionSpec iops =
        workload::DimensionSpec::Bursty(500.0, 6000.0, 3.0, 120.0, 0.15);
    spec.dims[ResourceDim::kIops] = iops;
  }
  spec.dims[ResourceDim::kMemoryGb] =
      workload::DimensionSpec::Steady(12.0, 0.03);
  spec.dims[ResourceDim::kIoLatencyMs] =
      workload::DimensionSpec::Steady(7.0, 0.03);
  return doppler::bench::Unwrap(workload::GenerateTrace(spec, 30.0, &rng),
                                "trace generation");
}

}  // namespace

int main() {
  bench::Banner(
      "Figure 7 - bootstrap confidence score",
      "stable utilisation -> high confidence; inconsistent utilisation -> "
      "low confidence (guardrail: collect more data)");

  auto engine = bench::MakeEngine(catalog::Deployment::kSqlDb);
  core::RecommendFn recommend = [&](const telemetry::PerfTrace& t) {
    return engine->recommender->RecommendDb(t);
  };

  TablePrinter table({"Workload", "Recommended SKU", "Bootstrap runs",
                      "Matching runs", "Confidence"});
  for (bool stable : {true, false}) {
    const telemetry::PerfTrace trace = MakeTrace(stable, stable ? 70 : 71);
    core::ConfidenceOptions options;
    options.runs = 40;
    options.window_days = 7.0;
    Rng rng(707);
    const core::Recommendation original =
        bench::Unwrap(recommend(trace), "original");
    const core::ConfidenceResult result = bench::Unwrap(
        core::ScoreConfidence(trace, original, recommend, options, &rng),
        "confidence scoring");
    table.AddRow({trace.id(), original.sku.DisplayName(),
                  std::to_string(result.runs),
                  std::to_string(result.matching_runs),
                  FormatPercent(result.score, 0)});
  }
  table.Print(std::cout);

  // Show the per-run scatter for the volatile workload: which SKUs the
  // bootstrap runs landed on.
  const telemetry::PerfTrace trace = MakeTrace(false, 71);
  std::map<std::string, int> votes;
  Rng rng(708);
  core::ConfidenceOptions options;
  options.runs = 40;
  options.window_days = 7.0;
  // Re-run manually to collect the per-run picks.
  {
    const core::Recommendation original =
        bench::Unwrap(engine->recommender->RecommendDb(trace), "original");
    stats::Bootstrap bootstrap(trace.num_samples(), &rng);
    const std::size_t window =
        static_cast<std::size_t>(7.0 * 86400 / trace.interval_seconds());
    for (int run = 0; run < options.runs; ++run) {
      const telemetry::PerfTrace resampled =
          trace.Select(bootstrap.SampleWindow(window));
      StatusOr<core::Recommendation> rec =
          engine->recommender->RecommendDb(resampled);
      if (rec.ok()) ++votes[rec->sku.DisplayName()];
    }
    std::printf("\nPer-window SKU votes for the volatile workload (full-data "
                "pick: %s):\n",
                original.sku.DisplayName().c_str());
  }
  for (const auto& [sku, count] : votes) {
    std::printf("  %-55s %2d/40\n", sku.c_str(), count);
  }
  return 0;
}
