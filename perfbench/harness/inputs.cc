#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "catalog/catalog.h"
#include "catalog/pricing.h"
#include "core/throttling.h"
#include "dma/preprocess.h"
#include "dma/static_inputs.h"
#include "sim/fault_injector.h"
#include "telemetry/trace_io.h"
#include "util/random.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "workload/population.h"

namespace perfbench {

namespace fs = std::filesystem;
using doppler::CsvTable;
using doppler::Rng;
using doppler::Status;
using doppler::StatusOr;
using doppler::catalog::ResourceDim;
using doppler::telemetry::PerfTrace;
using doppler::workload::SyntheticCustomer;

namespace {

// Seed streams of the independent generators (one bench seed feeds all).
enum Stream : std::uint64_t {
  kProfilesStream = 1,
  kMinimalStream,
  kOneshotStream,
  kEstateStream,
  kDirtStream,
  kServeStream,
  kMonitorStream,
  kShiftStream,
};

std::uint64_t SubSeed(std::uint64_t seed, Stream stream) {
  Rng rng(seed);
  return rng.Fork(stream).NextUint64();
}

std::string Numbered(const std::string& prefix, int i, int width) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%0*d", width, i);
  return prefix + buffer;
}

StatusOr<std::vector<SyntheticCustomer>> Population(int customers,
                                                    double days,
                                                    std::uint64_t seed) {
  doppler::workload::PopulationOptions options;
  options.num_customers = customers;
  options.duration_days = days;
  options.seed = seed;
  return doppler::workload::GeneratePopulation(options);
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) return doppler::UnavailableError("cannot write " + path);
  return doppler::OkStatus();
}

Status WriteBad(const std::string& dir, const std::string& stem, int count) {
  for (int i = 0; i < count; ++i) {
    DOPPLER_RETURN_IF_ERROR(WriteText(
        dir + "/" + Numbered(stem, i, 2) + ".csv", "bogus,columns\n1,2\n"));
  }
  return doppler::OkStatus();
}

// A repairable corruption recipe: every fault the quality gate fixes under
// the repair policy, each kept short of the gate's gap limit.
std::vector<doppler::sim::FaultSpec> DirtRecipe(std::size_t rows, Rng* rng) {
  using doppler::sim::FaultKind;
  const double short_run = std::min(0.02, 20.0 / static_cast<double>(rows));
  const std::vector<doppler::sim::FaultSpec> menu = {
      {FaultKind::kJitter, 0.3, ""},
      {FaultKind::kDuplicate, 0.02, ""},
      {FaultKind::kOutOfOrder, 0.02, ""},
      {FaultKind::kNanBurst, short_run, ""},
      {FaultKind::kNegativeSpike, 0.01, ""},
      {FaultKind::kDropWindow, short_run, ""},
  };
  std::vector<doppler::sim::FaultSpec> recipe;
  const int steps = 1 + static_cast<int>(rng->UniformInt(2));
  for (int i = 0; i < steps; ++i) {
    recipe.push_back(menu[rng->UniformInt(menu.size())]);
  }
  return recipe;
}

Status GenerateOneshot(const InputPlan& plan, const std::string& out) {
  const int n = plan.sizes.oneshot_traces;
  const std::uint64_t seed = SubSeed(plan.seed, kOneshotStream);
  DOPPLER_ASSIGN_OR_RETURN(auto week, Population((n + 1) / 2, 7.0, seed));
  DOPPLER_ASSIGN_OR_RETURN(auto month, Population(n / 2, 30.0, seed + 1));
  for (int i = 0; i < n; ++i) {
    const SyntheticCustomer& customer =
        i % 2 == 0 ? week[static_cast<std::size_t>(i / 2)]
                   : month[static_cast<std::size_t>(i / 2)];
    DOPPLER_RETURN_IF_ERROR(doppler::telemetry::WriteTraceFile(
        customer.trace, out + "/" + Numbered("trace_", i, 2) + ".csv"));
  }
  return WriteBad(out, "trace_bad_", plan.inject_bad);
}

Status GenerateEstate(const InputPlan& plan, const std::string& out) {
  const int n = plan.sizes.estate_traces;
  const std::uint64_t seed = SubSeed(plan.seed, kEstateStream);
  // Length mix: 60% one week, 25% two weeks, 15% a month.
  const int n30 = std::max(1, n * 15 / 100);
  const int n14 = std::max(1, n * 25 / 100);
  const int n7 = n - n30 - n14;
  DOPPLER_ASSIGN_OR_RETURN(auto week, Population(n7, 7.0, seed));
  DOPPLER_ASSIGN_OR_RETURN(auto fortnight, Population(n14, 14.0, seed + 1));
  DOPPLER_ASSIGN_OR_RETURN(auto month, Population(n30, 30.0, seed + 2));
  std::vector<const PerfTrace*> traces;
  for (const auto* group : {&week, &fortnight, &month}) {
    for (const SyntheticCustomer& customer : *group) {
      traces.push_back(&customer.trace);
    }
  }
  // Interleave lengths so file order (the batch's request order) mixes them.
  Rng order(seed + 3);
  for (std::size_t i = traces.size(); i > 1; --i) {
    std::swap(traces[i - 1], traces[order.UniformInt(i)]);
  }
  Rng dirt(SubSeed(plan.seed, kDirtStream));
  for (std::size_t i = 0; i < traces.size(); ++i) {
    CsvTable table = doppler::telemetry::TraceToCsv(*traces[i]);
    if (dirt.Bernoulli(plan.sizes.estate_dirty)) {
      const auto recipe = DirtRecipe(table.num_rows(), &dirt);
      DOPPLER_ASSIGN_OR_RETURN(table,
                               doppler::sim::ApplyFaults(table, recipe, &dirt));
    }
    DOPPLER_RETURN_IF_ERROR(table.WriteFile(
        out + "/" + Numbered("cust_", static_cast<int>(i), 5) + ".csv"));
  }
  return WriteBad(out, "cust_bad_", plan.inject_bad);
}

Status GenerateServe(const InputPlan& plan, const std::string& out) {
  DOPPLER_ASSIGN_OR_RETURN(
      auto customers, Population(plan.sizes.serve_traces, 7.0,
                                 SubSeed(plan.seed, kServeStream)));
  for (std::size_t i = 0; i < customers.size(); ++i) {
    DOPPLER_RETURN_IF_ERROR(doppler::telemetry::WriteTraceFile(
        customers[i].trace,
        out + "/" + Numbered("req_", static_cast<int>(i), 4) + ".csv"));
  }
  return WriteBad(out, "req_bad_", plan.inject_bad);
}

// One customer's day, tiled over every batch: each batch is the same 144
// rows (timestamps continue), so window means stay put unless the plan
// shifts them. Shifted customers' CPU is scaled from `shift_batch` on.
Status WriteMonitorStream(const std::string& out, const std::string& id,
                          const PerfTrace& day, int batches, int shift_batch) {
  const std::vector<ResourceDim> dims = day.PresentDims();
  std::vector<std::string> header = {"t_seconds"};
  for (ResourceDim dim : dims) {
    header.push_back(doppler::catalog::ResourceDimName(dim));
  }
  for (int b = 0; b < batches; ++b) {
    CsvTable table(header);
    for (int r = 0; r < kMonitorBatchRows; ++r) {
      const long long row = static_cast<long long>(b) * kMonitorBatchRows + r;
      std::vector<std::string> cells = {std::to_string(row * 600)};
      for (ResourceDim dim : dims) {
        double value =
            day.Values(dim)[static_cast<std::size_t>(r) % day.num_samples()];
        if (shift_batch >= 0 && b >= shift_batch && dim == ResourceDim::kCpu) {
          value *= kMonitorShiftFactor;
        }
        cells.push_back(doppler::FormatDouble(value, 6));
      }
      DOPPLER_RETURN_IF_ERROR(table.AddRow(std::move(cells)));
    }
    DOPPLER_RETURN_IF_ERROR(
        table.WriteFile(out + "/" + id + "." + Numbered("", b, 4) + ".csv"));
  }
  return doppler::OkStatus();
}

Status GenerateMonitor(const InputPlan& plan, const std::string& out) {
  const Sizes& sizes = plan.sizes;
  DOPPLER_ASSIGN_OR_RETURN(
      auto customers, Population(sizes.monitor_customers, 1.0,
                                 SubSeed(plan.seed, kMonitorStream)));
  Rng shift(SubSeed(plan.seed, kShiftStream));
  std::string shifted;
  for (std::size_t i = 0; i < customers.size(); ++i) {
    const std::string id = Numbered("cust", static_cast<int>(i), 3);
    const PerfTrace& day = customers[i].trace;
    // A shift needs CPU to scale; the window must be assessed before it.
    int shift_batch = -1;
    if (shift.Bernoulli(sizes.monitor_shifted) &&
        day.Has(ResourceDim::kCpu)) {
      const int earliest = std::min(3, sizes.monitor_batches - 1);
      shift_batch = earliest + static_cast<int>(shift.UniformInt(
                                   static_cast<std::uint64_t>(
                                       sizes.monitor_batches / 2)));
      shift_batch = std::min(shift_batch, sizes.monitor_batches - 1);
      shifted += id + "\n";
    }
    DOPPLER_RETURN_IF_ERROR(WriteMonitorStream(out, id, day,
                                               sizes.monitor_batches,
                                               shift_batch));
  }
  for (int i = 0; i < plan.inject_bad; ++i) {
    DOPPLER_RETURN_IF_ERROR(WriteText(
        out + "/" + Numbered("bad", i, 2) + ".0000.csv", "bogus,columns\n1,2\n"));
  }
  return WriteText(ShiftedListPath(plan.dir), shifted);
}

}  // namespace

Sizes Sizes::Tiny() {
  Sizes sizes;
  sizes.oneshot_traces = 2;
  sizes.estate_traces = 12;
  sizes.serve_traces = 8;
  sizes.monitor_customers = 6;
  sizes.monitor_batches = 8;
  sizes.monitor_shifted = 0.5;
  return sizes;
}

std::string ProfilesPath(const std::string& dir) {
  return dir + "/profiles.csv";
}
std::string MinimalDir(const std::string& dir) { return dir + "/minimal"; }
std::string WorkloadDir(const std::string& dir, const std::string& workload) {
  return dir + "/" + workload;
}
std::string ShiftedListPath(const std::string& dir) {
  return dir + "/monitor_shifted.txt";
}

std::vector<std::string> ListCsv(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Status GenerateInputs(const InputPlan& plan) {
  if (std::find(kWorkloads.begin(), kWorkloads.end(), plan.workload) ==
      kWorkloads.end()) {
    return doppler::InvalidArgumentError("unknown workload " + plan.workload);
  }
  std::error_code ec;
  fs::create_directories(MinimalDir(plan.dir), ec);
  fs::create_directories(WorkloadDir(plan.dir, plan.workload), ec);
  if (ec) return doppler::UnavailableError("cannot create " + plan.dir);

  // The shipped-model stand-in: fitted offline like `doppler fit-profiles`,
  // from the bench seed.
  const doppler::catalog::SkuCatalog skus =
      doppler::catalog::BuildAzureLikeCatalog();
  const doppler::catalog::DefaultPricing pricing;
  const doppler::core::NonParametricEstimator estimator;
  DOPPLER_ASSIGN_OR_RETURN(
      const doppler::core::GroupModel model,
      doppler::dma::FitGroupModelOffline(
          skus, pricing, estimator, doppler::catalog::Deployment::kSqlDb,
          /*num_customers=*/120, SubSeed(plan.seed, kProfilesStream)));
  DOPPLER_RETURN_IF_ERROR(
      doppler::dma::SaveGroupModel(model, ProfilesPath(plan.dir)));

  DOPPLER_ASSIGN_OR_RETURN(
      auto minimal, Population(1, 2.0, SubSeed(plan.seed, kMinimalStream)));
  DOPPLER_RETURN_IF_ERROR(doppler::telemetry::WriteTraceFile(
      minimal.front().trace, MinimalDir(plan.dir) + "/minimal.csv"));

  const std::string out = WorkloadDir(plan.dir, plan.workload);
  if (plan.workload == "oneshot_cold") return GenerateOneshot(plan, out);
  if (plan.workload == "estate_batch") return GenerateEstate(plan, out);
  if (plan.workload == "serve_open") return GenerateServe(plan, out);
  return GenerateMonitor(plan, out);
}

}  // namespace perfbench
