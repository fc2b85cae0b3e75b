#include "dma/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "catalog/catalog.h"
#include "core/drift.h"
#include "core/forecast.h"
#include "dma/multi_target.h"
#include "dma/pipeline.h"
#include "exec/fleet_assessor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "dma/shipped_models.h"
#include "dma/static_inputs.h"
#include "quality/quality_gate.h"
#include "serve/assessment_service.h"
#include "serve/snapshot_registry.h"
#include "serve/spool.h"
#include "stream/monitor.h"
#include "util/file_util.h"
#include "util/json_writer.h"
#include "tco/tco.h"
#include "telemetry/trace_io.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/benchmark_mix.h"
#include "workload/population.h"

namespace doppler::dma {

namespace {

constexpr char kUsage[] = R"(doppler <command> [--flag value ...]

Commands:
  help                                    this text
  catalog   [--extended] [--out F]        dump the generated SKU catalog
  fit-profiles --deployment db|mi [--customers N] [--seed S] [--out F]
  assess    --trace F [--target db|mi] [--catalog F] [--profiles F]
            [--layout F] [--current-sku ID] [--confidence] [--json]
            [--quality strict|repair|permissive]
            [--targets id,id]   cross-target comparison instead (see below)
  targets                                 list the deployment-target registry
  assess-batch --traces DIR [--jobs N] [--target db|mi] [--catalog F]
            [--profiles F] [--quality strict|repair|permissive] [--json]
            [--timings] [--out F]
  serve     --spool DIR [--jobs N] [--queue-depth N] [--deadline-ms N]
            [--target db|mi] [--targets id,id] [--catalog F] [--profiles F]
            [--confidence]
            [--quality strict|repair|permissive] [--json] [--out F]
            [--watch-catalog F] [--rounds N] [--poll-ms N]
            [--journal-out F] [--stats-interval-ms N] [--stats-out F]
            [--slo-ms N]
  monitor   --spool DIR [--target db|mi] [--catalog F] [--profiles F]
            [--rounds N] [--poll-ms N] [--window-rows N]
            [--min-assess-rows N] [--drift-tolerance X] [--current-sku ID]
            [--quality strict|repair|permissive] [--json] [--out F]
  stats     [--snapshots F] [--last N]       render the serve stats file
  forecast  --trace F [--current-sku ID] [--months N]
  drift     --trace F --current-sku ID [--recent-fraction X]
  tco       --trace F
  synth     --trace F

Global flags (any command; --flag=value and --flag value both work; a
flag the command does not read is a usage error):
  --log-level debug|info|warning|error   stderr verbosity (default info)
  --log-json                             one JSON object per log line
  --metrics-out F    write the metrics registry after the command
                     (Prometheus text; .json extension switches to JSON)
  --trace-out F      record spans and write a Chrome trace_event JSON —
                     open in chrome://tracing or https://ui.perfetto.dev

Traces are CSV files with a t_seconds column plus cpu/memory/iops/
log_rate/io_latency/storage/workers columns (any subset).

Group models: assess, assess-batch, serve, monitor and tco use the model
shipped in the library for the default catalog (fitted offline, paper
§4), so a run fits nothing. fit-profiles with its defaults (--customers
120 --seed 11) writes that same model; --profiles loads a saved model;
--catalog and --extended fit one on their own catalog, which takes a
moment.

--quality selects how assess treats dirty telemetry: strict rejects the
first defect, repair (default) fixes and records every intervention,
permissive records without repairing.

assess --targets compares registered deployment targets instead of
assessing one catalog: each id (see `doppler targets`) is compiled into
its own snapshot, recommended against, and costed under every pricing
model the target offers (pay-go, reserved, serverless autoscale — the
serverless row simulates a lagging autoscaler and evaluates throttling
against the provisioned-capacity series, not the scale ceiling). serve
--targets additionally compiles one snapshot per id under the same epoch
swap, so every target serves from one catalog generation.

assess-batch assesses every *.csv under --traces (sorted by name; the file
name is the customer id) across --jobs workers (default: one per hardware
thread, at most 256). Each worker reads, gates, assesses and renders one
trace at a time, so about --jobs traces are in memory at once. Reports
are byte-identical at any --jobs value; per-trace wall clocks are only
included with --timings. A bad trace never sinks the batch: its slot
carries a structured status and the command exits 1.

serve runs the long-lived assessment service against a request spool: each
*.csv dropped under --spool is one request (the file name is the customer
id). --jobs workers (at most 256) drain a bounded --queue-depth admission
queue; a full queue sheds requests with RESOURCE_EXHAUSTED and sustained
pressure sheds the confidence stage first. --deadline-ms bounds each
request; expired requests report DEADLINE_EXCEEDED with the stages that
completed. --rounds scans the spool that many times (sleeping --poll-ms
between scans), and --watch-catalog hot-swaps a repriced catalog file into
a new snapshot epoch without disturbing in-flight requests.

serve observability: --journal-out appends every terminal request (status,
cause, pinned epoch, queue wait, per-stage timings) to a JSON-lines flight
journal; --stats-interval-ms runs the windowed metrics snapshotter on that
cadence, writing --stats-out (default doppler-stats.jsonl, plus a .prom
twin) atomically with windowed rates, p50/p95/p99 latency quantiles and —
with --slo-ms — the fraction of requests inside the SLO. Recording never
changes assessment results. `doppler stats` renders the snapshot file as a
text dashboard (request rates per outcome, latency quantiles, queue
gauges, catalog epoch history); --last N keeps only the newest N
snapshots.

monitor tails a telemetry spool as a STREAM: each *.csv under --spool is
one batch for the customer named by the file name up to the first '.'
("acme.0001.csv" extends acme's stream), appended into a per-customer
sliding window of exactly --window-rows rows (default 1008, one week).
A customer's first --min-assess-rows rows (default 288, at most
--window-rows) trigger one full assessment (minus confidence);
afterwards a window-mean shift past --drift-tolerance on any dimension
re-runs ONLY the affected stages, and with --current-sku also the SKU
drift detector. --rounds/--poll-ms scan like serve.

Exit codes: 0 success, 1 partial failure (some batch/serve requests
failed), 2 bad command line, 3 invalid input, 4 not found,
5 failed precondition (e.g. strict quality rejection), 6 out of range,
7 unavailable, 8 internal error, 9 resource exhausted (shed),
10 deadline exceeded.
)";

StatusOr<catalog::Deployment> ParseDeployment(const std::string& text) {
  if (text == "db" || text.empty()) return catalog::Deployment::kSqlDb;
  if (text == "mi") return catalog::Deployment::kSqlMi;
  return InvalidArgumentError("unknown deployment '" + text +
                              "' (expected db or mi)");
}

// Every integer flag is an int no larger than `max`: a larger value is
// rejected, never wrapped (strtoll saturates past long long, so that is
// rejected too).
StatusOr<int> ParsePositiveInt(const std::string& text, const char* what,
                               int max = std::numeric_limits<int>::max()) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || !Trim(end).empty() || value <= 0) {
    return InvalidArgumentError(std::string(what) + " must be a positive "
                                "integer, got '" + text + "'");
  }
  if (value > max) {
    return InvalidArgumentError(std::string(what) + " must be at most " +
                                std::to_string(max) + ", got '" + text + "'");
  }
  return static_cast<int>(value);
}

// Each --jobs worker is an OS thread; past this many a run gains nothing
// on any host and risks the OS refusing a thread.
constexpr int kMaxJobs = 256;

// --jobs of assess-batch and serve, or `fallback` when it is not given.
StatusOr<int> ParseJobs(const CliOptions& options, int fallback) {
  if (!options.Has("jobs")) return fallback;
  return ParsePositiveInt(options.Get("jobs"), "--jobs", kMaxJobs);
}

// Loads the catalog from --catalog, or generates the default one.
StatusOr<catalog::SkuCatalog> ResolveCatalog(const CliOptions& options) {
  const std::string path = options.Get("catalog");
  if (!path.empty()) return LoadCatalog(path);
  catalog::CatalogOptions catalog_options;
  if (options.Has("extended")) {
    catalog_options.include_serverless = true;
    catalog_options.include_hyperscale = true;
    catalog_options.include_sql_vm = true;
  }
  return catalog::BuildAzureLikeCatalog(catalog_options);
}

// Fits a group model offline on `skus`: `doppler fit-profiles`, and the
// model of a --catalog or --extended catalog.
StatusOr<core::GroupModel> FitProfiles(const catalog::SkuCatalog& skus,
                                       catalog::Deployment deployment,
                                       int customers, std::uint64_t seed) {
  DOPPLER_TRACE_SPAN("dma.model_fit");
  const catalog::DefaultPricing pricing;
  const core::NonParametricEstimator estimator;
  return FitGroupModelOffline(skus, pricing, estimator, deployment, customers,
                              seed);
}

// Loads profiles from --profiles. Without it, the default catalog uses the
// shipped model, and a --catalog or --extended catalog gets a model fitted
// offline on it.
StatusOr<core::GroupModel> ResolveProfiles(const CliOptions& options,
                                           const catalog::SkuCatalog& skus,
                                           catalog::Deployment deployment,
                                           std::ostream& out) {
  const std::string path = options.Get("profiles");
  if (!path.empty()) {
    DOPPLER_TRACE_SPAN("dma.model_load");
    return LoadGroupModel(path);
  }
  if (!options.Has("catalog") && !options.Has("extended")) {
    return DefaultGroupModel(
        *catalog::TargetRegistry::BuiltIns().Find("azure-db"), deployment);
  }
  if (!options.Has("json")) {
    // Keep --json output parseable: the note would corrupt the document.
    out << "(no --profiles given; fitting the group model offline, this "
           "takes a moment)\n";
  }
  return FitProfiles(skus, deployment, kDefaultTrainingCustomers,
                     kDefaultTrainingSeed);
}

StatusOr<int> RunCatalog(const CliOptions& options, std::ostream& out) {
  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  const std::string out_path = options.Get("out");
  if (!out_path.empty()) {
    DOPPLER_RETURN_IF_ERROR(SaveCatalog(skus, out_path));
    out << "wrote " << skus.size() << " SKUs to " << out_path << "\n";
    return 0;
  }
  TablePrinter table({"id", "deployment", "tier", "vCores", "memory GB",
                      "IOPS", "price/h"});
  for (const catalog::Sku& sku : skus.skus()) {
    table.AddRow({sku.id, catalog::DeploymentName(sku.deployment),
                  catalog::ServiceTierName(sku.tier),
                  std::to_string(sku.vcores),
                  FormatDouble(sku.max_memory_gb, 1),
                  FormatDouble(sku.max_iops, 0),
                  FormatDouble(sku.price_per_hour, 2)});
  }
  table.Print(out);
  return 0;
}

StatusOr<int> RunFitProfiles(const CliOptions& options, std::ostream& out) {
  DOPPLER_ASSIGN_OR_RETURN(catalog::Deployment deployment,
                           ParseDeployment(options.Get("deployment", "db")));
  int customers = kDefaultTrainingCustomers;
  if (options.Has("customers")) {
    DOPPLER_ASSIGN_OR_RETURN(
        customers, ParsePositiveInt(options.Get("customers"), "--customers"));
  }
  std::uint64_t seed = kDefaultTrainingSeed;
  if (options.Has("seed")) {
    DOPPLER_ASSIGN_OR_RETURN(const int parsed,
                             ParsePositiveInt(options.Get("seed"), "--seed"));
    seed = static_cast<std::uint64_t>(parsed);
  }
  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  DOPPLER_ASSIGN_OR_RETURN(core::GroupModel model,
                           FitProfiles(skus, deployment, customers, seed));
  const std::string out_path = options.Get("out");
  if (!out_path.empty()) {
    DOPPLER_RETURN_IF_ERROR(SaveGroupModel(model, out_path));
    out << "wrote " << model.AllGroups().size() << " group profiles to "
        << out_path << "\n";
    return 0;
  }
  TablePrinter table({"group", "n", "mean P(throttle)", "std"});
  for (const core::GroupStats& stats : model.AllGroups()) {
    table.AddRow({std::to_string(stats.group_id + 1),
                  std::to_string(stats.count),
                  FormatPercent(stats.mean_probability, 2),
                  FormatDouble(stats.std_probability, 4)});
  }
  table.Print(out);
  return 0;
}

StatusOr<int> RunTargets(const CliOptions& options, std::ostream& out) {
  if (options.Has("json")) {
    JsonWriter json;
    json.BeginArray();
    for (const catalog::TargetSpec& spec :
         catalog::TargetRegistry::BuiltIns().specs()) {
      json.BeginObject();
      json.Key("id").String(spec.id);
      json.Key("display_name").String(spec.display_name);
      json.Key("deployment")
          .String(catalog::DeploymentName(spec.deployment));
      json.Key("skus").Int(static_cast<long long>(spec.build_catalog().size()));
      json.Key("storage_tiers")
          .Int(static_cast<long long>(spec.storage_tiers().size()));
      json.Key("pricing_models").BeginArray();
      for (const catalog::TargetPricingModel& model : spec.pricing_models) {
        json.String(catalog::PricingModelName(model.model));
      }
      json.EndArray();
      json.Key("capacity_dims").BeginArray();
      for (catalog::ResourceDim dim : spec.capacity_dims) {
        json.String(catalog::ResourceDimName(dim));
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    out << json.str() << "\n";
    return 0;
  }
  TablePrinter table({"id", "Target", "Deployment", "SKUs", "Storage tiers",
                      "Pricing models"});
  for (const catalog::TargetSpec& spec :
       catalog::TargetRegistry::BuiltIns().specs()) {
    std::string models;
    for (const catalog::TargetPricingModel& model : spec.pricing_models) {
      if (!models.empty()) models += ", ";
      models += catalog::PricingModelName(model.model);
    }
    table.AddRow({spec.id, spec.display_name,
                  catalog::DeploymentName(spec.deployment),
                  std::to_string(spec.build_catalog().size()),
                  std::to_string(spec.storage_tiers().size()), models});
  }
  table.Print(out);
  return 0;
}

// The `assess --targets` path: one trace, several registered targets,
// rendered as the cross-target comparison.
StatusOr<int> RunAssessTargets(const CliOptions& options,
                               const telemetry::PerfTrace& trace,
                               std::ostream& out) {
  DOPPLER_ASSIGN_OR_RETURN(
      const std::vector<const catalog::TargetSpec*> targets,
      ResolveTargets(options.Get("targets")));
  DOPPLER_ASSIGN_OR_RETURN(const CrossTargetReport report,
                           AssessAcrossTargets(trace, targets));
  if (options.Has("json")) {
    out << RenderCrossTargetJson(report) << "\n";
  } else {
    out << RenderCrossTargetReport(report);
  }
  // Exit 1 when some (not all) targets failed, mirroring assess-batch's
  // partial-failure contract.
  int failed = 0;
  for (const TargetAssessment& target : report.targets) {
    if (!target.status.ok()) ++failed;
  }
  return failed == 0 ? 0 : 1;
}

// The human-readable `assess` report.
std::string RenderAssessmentText(const AssessmentOutcome& outcome) {
  std::ostringstream out;
  out << RenderRecommendationReport(outcome.instance_trace, outcome.elastic);
  out << "\nTelemetry quality: " << outcome.quality.Summary() << "\n";
  if (!outcome.stage_timings.empty()) {
    out << "Stage timings:";
    for (const StageTiming& timing : outcome.stage_timings) {
      out << " " << timing.stage << " "
          << FormatDouble(timing.seconds * 1000.0, 2) << " ms;";
    }
    out << "\n";
  }
  out << "\n"
      << RenderNegotiabilityReport(outcome.instance_trace, outcome.target);
  if (outcome.confidence.has_value()) {
    out << "\nConfidence: " << FormatPercent(outcome.confidence->score, 0)
        << " (" << outcome.confidence->matching_runs << "/"
        << outcome.confidence->runs << " bootstrap runs agree)\n";
  }
  if (outcome.baseline.ok()) {
    out << "Legacy baseline pick: " << outcome.baseline->sku.DisplayName()
        << " at " << FormatDollars(outcome.baseline->monthly_cost, 0)
        << "/month\n";
  } else {
    out << "Legacy baseline: no SKU meets every scalar requirement\n";
  }
  if (outcome.rightsizing.has_value()) {
    out << "Right-sizing: "
        << (outcome.rightsizing->over_provisioned ? "OVER-PROVISIONED"
                                                  : "well sized")
        << "; moving to " << outcome.rightsizing->recommended.sku.DisplayName()
        << " saves " << FormatDollars(outcome.rightsizing->annual_savings, 0)
        << "/year\n";
  } else if (!outcome.rightsizing_skip_reason.empty()) {
    out << "Right-sizing: skipped (" << outcome.rightsizing_skip_reason
        << ")\n";
  }
  return out.str();
}

StatusOr<int> RunAssess(const CliOptions& options, std::ostream& out) {
  const std::string trace_path = options.Get("trace");
  if (trace_path.empty()) {
    return InvalidArgumentError("assess requires --trace <csv>");
  }
  quality::QualityPolicy policy = quality::QualityPolicy::kRepair;
  if (options.Has("quality") &&
      !quality::ParseQualityPolicy(options.Get("quality"), &policy)) {
    return InvalidArgumentError("unknown quality policy '" +
                                options.Get("quality") +
                                "' (expected strict, repair or permissive)");
  }
  quality::GateOptions gate;
  gate.policy = policy;
  DOPPLER_ASSIGN_OR_RETURN(quality::GatedTrace gated,
                           quality::ReadTraceFileGated(trace_path, gate));
  if (options.Has("targets")) {
    return RunAssessTargets(options, gated.trace, out);
  }
  DOPPLER_ASSIGN_OR_RETURN(catalog::Deployment deployment,
                           ParseDeployment(options.Get("target", "db")));
  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  DOPPLER_ASSIGN_OR_RETURN(core::GroupModel profiles,
                           ResolveProfiles(options, skus, deployment, out));
  DOPPLER_ASSIGN_OR_RETURN(
      SkuRecommendationPipeline pipeline,
      SkuRecommendationPipeline::Create({std::move(skus),
                                         std::move(profiles)}));
  AssessmentRequest request;
  request.customer_id = trace_path;
  request.target = deployment;
  request.database_traces = {std::move(gated.trace)};
  request.current_sku_id = options.Get("current-sku");
  request.compute_confidence = options.Has("confidence");
  request.quality_policy = policy;
  request.ingest_quality = std::move(gated.report);
  if (options.Has("layout")) {
    DOPPLER_ASSIGN_OR_RETURN(request.layout,
                             LoadLayout(options.Get("layout")));
  }
  DOPPLER_ASSIGN_OR_RETURN(AssessmentOutcome outcome,
                           pipeline.Assess(request));
  std::string rendered;
  {
    DOPPLER_TRACE_SPAN("dma.render");
    rendered = options.Has("json") ? RenderAssessmentJson(outcome) + "\n"
                                   : RenderAssessmentText(outcome);
  }
  DOPPLER_TRACE_SPAN("dma.write");
  out << rendered;
  return 0;
}

// One assess-batch slot, filled in by the worker that claimed it: whether
// the trace was assessed, and its JSON fragment or table row.
struct BatchSlot {
  bool ok = false;
  std::string json;
  std::vector<std::string> row;
};

// Reads and gates one batch trace, then assesses it.
StatusOr<AssessmentOutcome> AssessTraceFile(
    const SkuRecommendationPipeline& pipeline, const std::string& path,
    const std::string& customer_id, catalog::Deployment deployment,
    quality::QualityPolicy policy) {
  quality::GateOptions gate;
  gate.policy = policy;
  DOPPLER_ASSIGN_OR_RETURN(quality::GatedTrace gated,
                           quality::ReadTraceFileGated(path, gate));
  AssessmentRequest request;
  request.customer_id = customer_id;
  request.target = deployment;
  request.database_traces = {std::move(gated.trace)};
  request.quality_policy = policy;
  request.ingest_quality = std::move(gated.report);
  return pipeline.Assess(request);
}

// The text report's row of one batch slot.
std::vector<std::string> BatchRow(const std::string& customer_id,
                                  const StatusOr<AssessmentOutcome>& outcome) {
  if (!outcome.ok()) {
    return {customer_id,
            "error: " + std::string(outcome.status().message()), "-", "-",
            "-"};
  }
  const core::Recommendation& elastic = outcome->elastic;
  return {customer_id, elastic.sku.DisplayName(),
          FormatDollars(elastic.monthly_cost, 0),
          FormatPercent(elastic.throttling_probability, 1),
          core::CurveShapeName(elastic.curve_shape)};
}

StatusOr<int> RunAssessBatch(const CliOptions& options, std::ostream& out) {
  const std::string dir = options.Get("traces");
  if (dir.empty()) {
    return InvalidArgumentError("assess-batch requires --traces <directory>");
  }
  DOPPLER_ASSIGN_OR_RETURN(
      const int jobs,
      ParseJobs(options, exec::ThreadPool::HardwareConcurrency()));
  quality::QualityPolicy policy = quality::QualityPolicy::kRepair;
  if (options.Has("quality") &&
      !quality::ParseQualityPolicy(options.Get("quality"), &policy)) {
    return InvalidArgumentError("unknown quality policy '" +
                                options.Get("quality") +
                                "' (expected strict, repair or permissive)");
  }
  DOPPLER_ASSIGN_OR_RETURN(catalog::Deployment deployment,
                           ParseDeployment(options.Get("target", "db")));
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return InvalidArgumentError("--traces '" + dir + "' is not a directory");
  }
  // Lexicographic file order fixes both the customer ids and the slot
  // order, so the batch report is reproducible run to run.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return InvalidArgumentError("cannot scan '" + dir + "': " + ec.message());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    return NotFoundError("no *.csv traces under '" + dir + "'");
  }

  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  DOPPLER_ASSIGN_OR_RETURN(core::GroupModel profiles,
                           ResolveProfiles(options, skus, deployment, out));
  DOPPLER_ASSIGN_OR_RETURN(
      SkuRecommendationPipeline pipeline,
      SkuRecommendationPipeline::Create({std::move(skus),
                                         std::move(profiles)}));

  // Each file is one slot, and the worker that claims it reads, gates,
  // assesses and renders it, then drops the outcome: at most `jobs` traces
  // are in memory at once. A read, gate or assess failure renders as the
  // slot's error entry, so one bad file never sinks the batch.
  const bool json = options.Has("json");
  AssessmentJsonOptions json_options;
  json_options.include_stage_seconds = options.Has("timings");
  std::vector<BatchSlot> slots(files.size());
  const exec::FleetAssessor assessor(&pipeline, jobs);
  assessor.ForEachSlot(files.size(), [&](std::size_t i) {
    const std::string customer_id = files[i].filename().string();
    const StatusOr<AssessmentOutcome> outcome = AssessTraceFile(
        pipeline, files[i].string(), customer_id, deployment, policy);
    DOPPLER_TRACE_SPAN("dma.render");
    slots[i].ok = outcome.ok();
    if (json) {
      slots[i].json = RenderFleetSlotJson(customer_id, outcome, json_options);
    } else {
      slots[i].row = BatchRow(customer_id, outcome);
    }
  });

  std::size_t failed = 0;
  for (const BatchSlot& slot : slots) failed += !slot.ok;
  std::string rendered;
  if (json) {
    std::vector<std::string> fragments;
    fragments.reserve(slots.size());
    for (BatchSlot& slot : slots) fragments.push_back(std::move(slot.json));
    rendered = JoinFleetAssessmentJson(fragments, slots.size() - failed);
    rendered += "\n";
  } else {
    TablePrinter table({"customer", "SKU", "monthly", "P(throttle)", "curve"});
    for (BatchSlot& slot : slots) table.AddRow(std::move(slot.row));
    std::ostringstream text;
    table.Print(text);
    text << "\nAssessed " << slots.size() - failed << "/" << slots.size()
         << " traces with " << assessor.jobs() << " job(s)\n";
    rendered = text.str();
  }
  DOPPLER_TRACE_SPAN("dma.write");
  const std::string out_path = options.Get("out");
  if (!out_path.empty()) {
    DOPPLER_RETURN_IF_ERROR(WriteTextFileAtomic(out_path, rendered));
    out << "wrote batch report for " << slots.size() << " traces to "
        << out_path << "\n";
  } else {
    out << rendered;
  }
  // Partial-failure contract: the report always renders every slot, and
  // the exit code says whether every slot succeeded.
  return failed == 0 ? 0 : 1;
}

// Builds one serving snapshot: a pipeline compiled from `skus` and a copy
// of `profiles`. Separated out so --watch-catalog can rebuild against a
// repriced catalog without refitting the group model.
StatusOr<std::shared_ptr<const SkuRecommendationPipeline>> BuildSnapshot(
    catalog::SkuCatalog skus, const core::GroupModel& profiles) {
  DOPPLER_ASSIGN_OR_RETURN(
      SkuRecommendationPipeline pipeline,
      SkuRecommendationPipeline::Create({std::move(skus), profiles}));
  return std::make_shared<const SkuRecommendationPipeline>(
      std::move(pipeline));
}

// Builds one pipeline per requested target id (serve --targets): each
// target's own catalog is compiled into its own CompiledCatalog snapshot,
// with that target's default group model. The list is
// published under one SnapshotRegistry epoch, so every target serves from
// the same generation.
StatusOr<serve::TargetPipelineList> BuildTargetPipelines(
    const std::string& target_ids) {
  DOPPLER_ASSIGN_OR_RETURN(
      const std::vector<const catalog::TargetSpec*> specs,
      ResolveTargets(target_ids));
  serve::TargetPipelineList pipelines;
  pipelines.reserve(specs.size());
  for (const catalog::TargetSpec* spec : specs) {
    DOPPLER_ASSIGN_OR_RETURN(core::GroupModel profiles,
                             DefaultGroupModel(*spec, spec->deployment));
    SkuRecommendationPipeline::Config config;
    config.target = spec;
    DOPPLER_ASSIGN_OR_RETURN(
        SkuRecommendationPipeline pipeline,
        SkuRecommendationPipeline::Create(
            {spec->build_catalog(), std::move(profiles)}, config));
    pipelines.emplace_back(spec->id,
                           std::make_shared<const SkuRecommendationPipeline>(
                               std::move(pipeline)));
  }
  return pipelines;
}

StatusOr<int> RunServe(const CliOptions& options, std::ostream& out) {
  const std::string spool_dir = options.Get("spool");
  if (spool_dir.empty()) {
    return InvalidArgumentError("serve requires --spool <directory>");
  }
  serve::ServiceOptions service_options;
  DOPPLER_ASSIGN_OR_RETURN(service_options.workers,
                           ParseJobs(options, service_options.workers));
  if (options.Has("queue-depth")) {
    DOPPLER_ASSIGN_OR_RETURN(
        service_options.queue_depth,
        ParsePositiveInt(options.Get("queue-depth"), "--queue-depth"));
  }
  serve::SpoolOptions spool_options;
  spool_options.dir = spool_dir;
  DOPPLER_ASSIGN_OR_RETURN(spool_options.target,
                           ParseDeployment(options.Get("target", "db")));
  if (options.Has("quality") &&
      !quality::ParseQualityPolicy(options.Get("quality"),
                                   &spool_options.quality_policy)) {
    return InvalidArgumentError("unknown quality policy '" +
                                options.Get("quality") +
                                "' (expected strict, repair or permissive)");
  }
  if (options.Has("deadline-ms")) {
    DOPPLER_ASSIGN_OR_RETURN(
        const int deadline_ms,
        ParsePositiveInt(options.Get("deadline-ms"), "--deadline-ms"));
    spool_options.deadline_seconds = deadline_ms / 1000.0;
  }
  spool_options.compute_confidence = options.Has("confidence");
  int rounds = 1;
  if (options.Has("rounds")) {
    DOPPLER_ASSIGN_OR_RETURN(
        rounds, ParsePositiveInt(options.Get("rounds"), "--rounds"));
  }
  int poll_ms = 50;
  if (options.Has("poll-ms")) {
    DOPPLER_ASSIGN_OR_RETURN(
        poll_ms, ParsePositiveInt(options.Get("poll-ms"), "--poll-ms"));
  }

  // Serving-grade observability: the flight recorder journals every
  // terminal request, the snapshotter publishes windowed stats on a
  // cadence. Both are passive — reports are byte-identical either way.
  const std::string journal_path = options.Get("journal-out");
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!journal_path.empty()) {
    recorder = std::make_unique<obs::FlightRecorder>();
  }
  service_options.flight_recorder = recorder.get();

  int stats_interval_ms = 0;
  if (options.Has("stats-interval-ms")) {
    DOPPLER_ASSIGN_OR_RETURN(stats_interval_ms,
                             ParsePositiveInt(options.Get("stats-interval-ms"),
                                              "--stats-interval-ms"));
  }
  obs::SnapshotterOptions stats_options;
  const bool stats_enabled = stats_interval_ms > 0 ||
                             options.Has("stats-out") ||
                             options.Has("slo-ms");
  if (stats_enabled) {
    stats_options.jsonl_path = options.Get("stats-out", "doppler-stats.jsonl");
    // Prometheus twin next to the jsonl history, extension swapped.
    const std::filesystem::path prom_twin =
        std::filesystem::path(stats_options.jsonl_path)
            .replace_extension(".prom");
    stats_options.prom_path = prom_twin.string();
    if (options.Has("slo-ms")) {
      DOPPLER_ASSIGN_OR_RETURN(
          const int slo_ms, ParsePositiveInt(options.Get("slo-ms"), "--slo-ms"));
      stats_options.slo_seconds = slo_ms / 1000.0;
    }
  }

  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  DOPPLER_ASSIGN_OR_RETURN(
      core::GroupModel profiles,
      ResolveProfiles(options, skus, spool_options.target, out));
  DOPPLER_ASSIGN_OR_RETURN(auto initial,
                           BuildSnapshot(std::move(skus), profiles));
  serve::TargetPipelineList target_pipelines;
  if (options.Has("targets")) {
    DOPPLER_ASSIGN_OR_RETURN(target_pipelines,
                             BuildTargetPipelines(options.Get("targets")));
  }
  serve::SnapshotRegistry registry(std::move(initial), target_pipelines);
  if (!target_pipelines.empty() && !options.Has("json")) {
    out << "(serving " << target_pipelines.size()
        << " target snapshots under epoch 1:";
    for (const auto& [id, pipeline] : target_pipelines) {
      out << " " << id << "=" << pipeline->catalog().size() << " SKUs";
    }
    out << ")\n";
  }
  serve::AssessmentService service(&registry, service_options);

  std::unique_ptr<obs::MetricsSnapshotter> snapshotter;
  if (stats_enabled) {
    snapshotter = std::make_unique<obs::MetricsSnapshotter>(
        &obs::DefaultMetrics(), stats_options);
    // Startup tick anchors the first window at process start, so lifetime
    // totals reconstructed from window deltas match the cumulative
    // counters; the background cadence takes over from here.
    snapshotter->Tick();
    if (stats_interval_ms > 0) snapshotter->Start(stats_interval_ms);
  }

  const std::string watch_path = options.Get("watch-catalog");
  const bool quiet = options.Has("json");
  std::filesystem::file_time_type watch_mtime{};
  bool watch_loaded = false;
  std::set<std::string> seen;
  serve::SpoolReport report;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
    // Hot swap: a new or rewritten --watch-catalog file becomes the next
    // snapshot epoch. Requests already admitted keep their pinned epoch.
    if (!watch_path.empty()) {
      std::error_code ec;
      const auto mtime = std::filesystem::last_write_time(watch_path, ec);
      if (!ec && (!watch_loaded || mtime != watch_mtime)) {
        watch_loaded = true;
        watch_mtime = mtime;
        StatusOr<catalog::SkuCatalog> fresh = LoadCatalog(watch_path);
        if (fresh.ok()) {
          StatusOr<std::shared_ptr<const SkuRecommendationPipeline>> next =
              BuildSnapshot(std::move(*fresh), profiles);
          if (next.ok()) {
            // The per-target pipelines ride along into the new epoch: the
            // watch file reprices the primary catalog only, and the swap
            // republishes the whole set atomically.
            const std::uint64_t epoch =
                registry.Swap(std::move(*next), target_pipelines);
            if (!quiet) {
              out << "(swapped catalog snapshot to epoch " << epoch << ")\n";
            }
          } else if (!quiet) {
            out << "(keeping current snapshot: " << next.status().ToString()
                << ")\n";
          }
        } else if (!quiet) {
          out << "(keeping current snapshot: " << fresh.status().ToString()
              << ")\n";
        }
      }
    }
    DOPPLER_ASSIGN_OR_RETURN(const std::vector<std::string> paths,
                             serve::ScanSpool(spool_dir, &seen));
    if (paths.empty()) continue;
    serve::SpoolReport pass = serve::DrainSpool(service, paths, spool_options);
    report.failures += pass.failures;
    for (serve::ServeResponse& response : pass.responses) {
      report.responses.push_back(std::move(response));
    }
    // Publish the journal at every round boundary, not just at exit, so a
    // killed server still leaves the journal of its completed rounds.
    if (recorder != nullptr) {
      const Status dumped = recorder->DumpJsonLines(journal_path);
      if (!dumped.ok() && !quiet) {
        out << "(journal write failed: " << dumped.ToString() << ")\n";
      }
    }
  }
  // Final tick after the last round guarantees at least two snapshot lines
  // (startup + final) even when the run outpaces the cadence.
  if (snapshotter != nullptr) {
    snapshotter->Stop();
    snapshotter->Tick();
    if (const Status exported = snapshotter->LastExportStatus();
        !exported.ok() && !quiet) {
      out << "(stats write failed: " << exported.ToString() << ")\n";
    }
  }
  if (recorder != nullptr) {
    const Status dumped = recorder->DumpJsonLines(journal_path);
    if (!dumped.ok() && !quiet) {
      out << "(journal write failed: " << dumped.ToString() << ")\n";
    }
  }
  if (report.responses.empty()) {
    return NotFoundError("no *.csv requests appeared under '" + spool_dir +
                         "' in " + std::to_string(rounds) + " scan(s)");
  }

  const serve::AssessmentService::Stats stats = service.stats();
  const std::string rendered =
      options.Has("json") ? serve::RenderSpoolReportJson(report, stats) + "\n"
                          : serve::RenderSpoolReportText(report, stats);
  const std::string out_path = options.Get("out");
  if (!out_path.empty()) {
    DOPPLER_RETURN_IF_ERROR(WriteTextFileAtomic(out_path, rendered));
    out << "wrote serve report for " << report.responses.size()
        << " requests to " << out_path << "\n";
  } else {
    out << rendered;
  }
  // Same partial-failure contract as assess-batch: every request reached a
  // terminal status and the report says which; exit 1 flags any non-OK.
  return report.failures == 0 ? 0 : 1;
}

StatusOr<int> RunMonitor(const CliOptions& options, std::ostream& out) {
  const std::string spool_dir = options.Get("spool");
  if (spool_dir.empty()) {
    return InvalidArgumentError("monitor requires --spool <directory>");
  }
  stream::MonitorOptions monitor_options;
  DOPPLER_ASSIGN_OR_RETURN(monitor_options.target,
                           ParseDeployment(options.Get("target", "db")));
  if (options.Has("window-rows")) {
    DOPPLER_ASSIGN_OR_RETURN(
        const int rows,
        ParsePositiveInt(options.Get("window-rows"), "--window-rows"));
    monitor_options.window_rows = static_cast<std::size_t>(rows);
  }
  if (options.Has("min-assess-rows")) {
    DOPPLER_ASSIGN_OR_RETURN(const int rows,
                             ParsePositiveInt(options.Get("min-assess-rows"),
                                              "--min-assess-rows"));
    monitor_options.min_assess_rows = static_cast<std::size_t>(rows);
  }
  // A window shorter than the assessment threshold never assesses.
  if (monitor_options.min_assess_rows > monitor_options.window_rows) {
    return InvalidArgumentError(
        "--min-assess-rows (" +
        std::to_string(monitor_options.min_assess_rows) +
        ") exceeds --window-rows (" +
        std::to_string(monitor_options.window_rows) + ")");
  }
  if (options.Has("drift-tolerance")) {
    // `end` points into `text`, so the string must outlive the check.
    const std::string text = options.Get("drift-tolerance");
    char* end = nullptr;
    monitor_options.drift_tolerance = std::strtod(text.c_str(), &end);
    // NaN and infinity would never trip drift.
    if (end == nullptr || *end != '\0' ||
        !std::isfinite(monitor_options.drift_tolerance) ||
        monitor_options.drift_tolerance <= 0.0) {
      return InvalidArgumentError(
          "--drift-tolerance expects a positive finite number, got '" + text +
          "'");
    }
  }
  monitor_options.current_sku_id = options.Get("current-sku");
  quality::GateOptions gate;
  if (options.Has("quality") &&
      !quality::ParseQualityPolicy(options.Get("quality"), &gate.policy)) {
    return InvalidArgumentError("unknown quality policy '" +
                                options.Get("quality") +
                                "' (expected strict, repair or permissive)");
  }
  int rounds = 1;
  if (options.Has("rounds")) {
    DOPPLER_ASSIGN_OR_RETURN(
        rounds, ParsePositiveInt(options.Get("rounds"), "--rounds"));
  }
  int poll_ms = 50;
  if (options.Has("poll-ms")) {
    DOPPLER_ASSIGN_OR_RETURN(
        poll_ms, ParsePositiveInt(options.Get("poll-ms"), "--poll-ms"));
  }

  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  DOPPLER_ASSIGN_OR_RETURN(
      core::GroupModel profiles,
      ResolveProfiles(options, skus, monitor_options.target, out));
  DOPPLER_ASSIGN_OR_RETURN(
      SkuRecommendationPipeline pipeline,
      SkuRecommendationPipeline::Create({std::move(skus), profiles}));
  stream::StreamMonitor monitor(&pipeline, monitor_options);

  const bool json = options.Has("json");
  std::ostringstream rendered;
  std::set<std::string> seen;
  std::size_t batches = 0;
  std::size_t failures = 0;
  std::size_t reassessments = 0;
  std::size_t drift_trips = 0;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
    DOPPLER_ASSIGN_OR_RETURN(const std::vector<std::string> paths,
                             serve::ScanSpool(spool_dir, &seen));
    for (const std::string& path : paths) {
      const std::string customer_id = serve::SpoolCustomerId(path);
      StatusOr<quality::GatedTrace> gated =
          quality::ReadTraceFileGated(path, gate);
      if (!gated.ok()) {
        ++failures;
        rendered << (json ? "{\"customer_id\":\"" +
                                JsonWriter::Escape(customer_id) +
                                "\",\"error\":\"" +
                                JsonWriter::Escape(
                                    gated.status().ToString()) +
                                "\"}\n"
                          : customer_id + ": ingest failed: " +
                                gated.status().ToString() + "\n");
        continue;
      }
      StatusOr<stream::MonitorEvent> event =
          monitor.Ingest(customer_id, gated->trace);
      if (!event.ok()) {
        ++failures;
        rendered << (json ? "{\"customer_id\":\"" +
                                JsonWriter::Escape(customer_id) +
                                "\",\"error\":\"" +
                                JsonWriter::Escape(
                                    event.status().ToString()) +
                                "\"}\n"
                          : customer_id + ": " +
                                event.status().ToString() + "\n");
        continue;
      }
      ++batches;
      if (event->assessed && !event->initial) ++reassessments;
      drift_trips += event->drifted_dims.size();
      rendered << (json ? stream::RenderMonitorEventJson(*event) + "\n"
                        : stream::RenderMonitorEventText(*event));
    }
  }
  if (batches == 0 && failures == 0) {
    return NotFoundError("no *.csv batches appeared under '" + spool_dir +
                         "' in " + std::to_string(rounds) + " scan(s)");
  }
  if (!json) {
    rendered << "monitored " << batches << " batches across "
             << monitor.num_customers() << " customers ("
             << reassessments << " drift re-assessments, " << drift_trips
             << " dimension trips, " << failures << " failures)\n";
  }
  const std::string out_path = options.Get("out");
  if (!out_path.empty()) {
    DOPPLER_RETURN_IF_ERROR(WriteTextFileAtomic(out_path, rendered.str()));
    out << "wrote monitor log for " << batches << " batches to " << out_path
        << "\n";
  } else {
    out << rendered.str();
  }
  return failures == 0 ? 0 : 1;
}

// Renders the snapshot history `serve --stats-interval-ms` maintains.
// Reads the same file serve writes atomically, so running this while the
// server is live always sees a complete history, never a torn write.
StatusOr<int> RunStats(const CliOptions& options, std::ostream& out) {
  const std::string path = options.Get("snapshots", "doppler-stats.jsonl");
  std::vector<obs::WindowedSnapshot> history;
  DOPPLER_RETURN_IF_ERROR(
      obs::MetricsSnapshotter::ReadJsonLines(path, &history));
  if (options.Has("last")) {
    DOPPLER_ASSIGN_OR_RETURN(const int last,
                             ParsePositiveInt(options.Get("last"), "--last"));
    if (history.size() > static_cast<std::size_t>(last)) {
      history.erase(history.begin(),
                    history.end() - static_cast<std::ptrdiff_t>(last));
    }
  }
  out << obs::RenderStatsDashboard(history);
  return 0;
}

StatusOr<int> RunForecast(const CliOptions& options, std::ostream& out) {
  const std::string trace_path = options.Get("trace");
  if (trace_path.empty()) {
    return InvalidArgumentError("forecast requires --trace <csv>");
  }
  DOPPLER_ASSIGN_OR_RETURN(telemetry::PerfTrace trace,
                           telemetry::ReadTraceFile(trace_path));
  int months = 12;
  if (options.Has("months")) {
    DOPPLER_ASSIGN_OR_RETURN(
        months, ParsePositiveInt(options.Get("months"), "--months"));
  }
  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(std::move(skus), &pricing);
  const core::NonParametricEstimator estimator;
  core::ForecastOptions forecast_options;
  forecast_options.horizon_months = months;
  DOPPLER_ASSIGN_OR_RETURN(
      core::GrowthForecast forecast,
      core::ForecastUpgrades(
          trace, compiled.ForDeployment(catalog::Deployment::kSqlDb).view(),
          compiled.pricing(), estimator, options.Get("current-sku"),
          forecast_options));
  TablePrinter table({"Month", "Right-sized SKU", "Monthly",
                      "Current-SKU throttling"});
  for (const core::HorizonPoint& point : forecast.timeline) {
    table.AddRow({std::to_string(point.month),
                  point.recommended_sku_id.empty()
                      ? "(nothing fits)"
                      : point.recommended_display_name,
                  FormatDollars(point.recommended_monthly_cost, 0),
                  FormatPercent(point.current_sku_probability, 1)});
  }
  table.Print(out);
  if (forecast.upgrade_due_month > 0) {
    out << "\nUpgrade due in month " << forecast.upgrade_due_month
        << ": the current SKU's throttling crosses the tolerance.\n";
  } else if (!options.Get("current-sku").empty()) {
    out << "\nThe current SKU holds through the horizon.\n";
  }
  return 0;
}

StatusOr<int> RunDrift(const CliOptions& options, std::ostream& out) {
  const std::string trace_path = options.Get("trace");
  const std::string current_sku = options.Get("current-sku");
  if (trace_path.empty() || current_sku.empty()) {
    return InvalidArgumentError(
        "drift requires --trace <csv> and --current-sku <id>");
  }
  DOPPLER_ASSIGN_OR_RETURN(telemetry::PerfTrace trace,
                           telemetry::ReadTraceFile(trace_path));
  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  const catalog::DefaultPricing pricing;
  const catalog::CompiledCatalog compiled =
      catalog::CompiledCatalog::Compile(std::move(skus), &pricing);
  const core::NonParametricEstimator estimator;
  core::DriftOptions drift_options;
  if (options.Has("recent-fraction")) {
    char* end = nullptr;
    drift_options.recent_fraction =
        std::strtod(options.Get("recent-fraction").c_str(), &end);
  }
  DOPPLER_ASSIGN_OR_RETURN(
      core::DriftReport report,
      core::DetectSkuDrift(
          trace, compiled.ForDeployment(catalog::Deployment::kSqlDb).view(),
          compiled.pricing(), estimator, current_sku, drift_options));
  out << "Baseline-window throttling on " << current_sku << ": "
      << FormatPercent(report.baseline_probability, 1) << "\n";
  out << "Recent-window throttling:  "
      << FormatPercent(report.recent_probability, 1) << "\n";
  out << "SKU change needed: " << (report.needs_change ? "YES" : "no")
      << "\n";
  if (!report.recommended_sku_id.empty()) {
    out << "Right-sized target for the recent window: "
        << report.recommended_display_name << " ("
        << FormatDollars(report.recommended_monthly_cost, 0) << "/month)\n";
  }
  return 0;
}

StatusOr<int> RunTco(const CliOptions& options, std::ostream& out) {
  const std::string trace_path = options.Get("trace");
  if (trace_path.empty()) {
    return InvalidArgumentError("tco requires --trace <csv>");
  }
  DOPPLER_ASSIGN_OR_RETURN(telemetry::PerfTrace trace,
                           telemetry::ReadTraceFile(trace_path));
  DOPPLER_ASSIGN_OR_RETURN(catalog::SkuCatalog skus, ResolveCatalog(options));
  const core::NonParametricEstimator estimator;
  DOPPLER_ASSIGN_OR_RETURN(
      core::GroupModel profiles,
      ResolveProfiles(options, skus, catalog::Deployment::kSqlDb, out));
  const core::CustomerProfiler profiler(
      std::make_shared<core::ThresholdingStrategy>(),
      workload::ProfilingDims(catalog::Deployment::kSqlDb));
  const tco::OnPremCostModel on_prem;
  DOPPLER_ASSIGN_OR_RETURN(
      tco::TcoComparison comparison,
      tco::CompareTco(trace, on_prem, skus, estimator, profiler, profiles));
  out << tco::RenderTcoReport(comparison);
  return 0;
}

// Applies the command-independent observability flags before dispatch:
// logging verbosity/format and span recording. Collected metrics always
// accumulate; --metrics-out / --trace-out only control export.
Status ApplyGlobalFlags(const CliOptions& options) {
  if (options.Has("log-level")) {
    LogLevel level = LogLevel::kInfo;
    if (!ParseLogLevel(options.Get("log-level"), &level)) {
      return InvalidArgumentError(
          "unknown log level '" + options.Get("log-level") +
          "' (expected debug, info, warning or error)");
    }
    SetMinLogLevel(level);
  }
  if (options.Has("log-json")) SetLogFormat(LogFormat::kJson);
  if (options.Has("trace-out")) {
    obs::SetTracingEnabled(true);
    obs::ClearTraceBuffer();
  }
  return OkStatus();
}

// Writes the requested exports after the command ran (also on command
// failure — the partial record is exactly what debugging needs).
Status ExportObservability(const CliOptions& options) {
  if (options.Has("metrics-out")) {
    const std::string path = options.Get("metrics-out");
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    const obs::MetricsRegistry& metrics = obs::DefaultMetrics();
    DOPPLER_RETURN_IF_ERROR(WriteTextFileAtomic(
        path, json ? metrics.RenderJson() : metrics.RenderPrometheusText()));
  }
  if (options.Has("trace-out")) {
    DOPPLER_RETURN_IF_ERROR(obs::WriteChromeTrace(options.Get("trace-out")));
    obs::SetTracingEnabled(false);
  }
  return OkStatus();
}

StatusOr<int> RunSynth(const CliOptions& options, std::ostream& out) {
  const std::string trace_path = options.Get("trace");
  if (trace_path.empty()) {
    return InvalidArgumentError("synth requires --trace <csv>");
  }
  DOPPLER_ASSIGN_OR_RETURN(telemetry::PerfTrace trace,
                           telemetry::ReadTraceFile(trace_path));
  DOPPLER_ASSIGN_OR_RETURN(workload::SynthesizedWorkload synth,
                           workload::SynthesizeFromHistory(trace));
  out << "Synthesized workload: " << synth.Describe() << "\n";
  out << "Fit error: " << FormatPercent(synth.fit_error, 1)
      << "; peak-to-mean " << FormatDouble(synth.peak_to_mean, 2)
      << "; target latency " << FormatDouble(synth.target_latency_ms, 1)
      << " ms\n";
  return 0;
}

StatusOr<int> RunHelp(const CliOptions&, std::ostream& out) {
  out << kUsage;
  return 0;
}

// The dispatch table: each command's handler and the flags it reads, its
// own and those of the Resolve* helpers it calls. ParseCliArgs rejects
// any other flag, so a typo or a retired flag fails instead of silently
// doing nothing.
struct Command {
  const char* name;
  StatusOr<int> (*run)(const CliOptions& options, std::ostream& out);
  std::set<std::string> flags;
};

const std::vector<Command>& Commands() {
  static const auto* const kCommands = new std::vector<Command>{
      {"help", RunHelp, {}},
      {"catalog", RunCatalog, {"catalog", "extended", "out"}},
      {"fit-profiles",
       RunFitProfiles,
       {"deployment", "customers", "seed", "catalog", "extended", "out"}},
      {"assess",
       RunAssess,
       {"trace", "target", "targets", "catalog", "extended", "profiles",
        "layout", "current-sku", "confidence", "json", "quality"}},
      {"targets", RunTargets, {"json"}},
      {"assess-batch",
       RunAssessBatch,
       {"traces", "jobs", "target", "catalog", "extended", "profiles",
        "quality", "json", "timings", "out"}},
      {"serve",
       RunServe,
       {"spool", "jobs", "queue-depth", "deadline-ms", "target", "targets",
        "catalog", "extended", "profiles", "confidence", "quality", "json",
        "out", "watch-catalog", "rounds", "poll-ms", "journal-out",
        "stats-interval-ms", "stats-out", "slo-ms"}},
      {"monitor",
       RunMonitor,
       {"spool", "target", "catalog", "extended", "profiles", "rounds",
        "poll-ms", "window-rows", "min-assess-rows", "drift-tolerance",
        "current-sku", "quality", "json", "out"}},
      {"stats", RunStats, {"snapshots", "last"}},
      {"forecast",
       RunForecast,
       {"trace", "current-sku", "months", "catalog", "extended"}},
      {"drift",
       RunDrift,
       {"trace", "current-sku", "recent-fraction", "catalog", "extended"}},
      {"tco", RunTco, {"trace", "catalog", "extended", "profiles", "json"}},
      {"synth", RunSynth, {"trace"}},
  };
  return *kCommands;
}

// Read by ApplyGlobalFlags / ExportObservability for every command.
const std::set<std::string>& GlobalFlags() {
  static const auto* const kGlobal = new std::set<std::string>{
      "log-level", "log-json", "metrics-out", "trace-out"};
  return *kGlobal;
}

const Command* FindCommand(const std::string& name) {
  for (const Command& command : Commands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

std::string CliOptions::Get(const std::string& name,
                            const std::string& fallback) const {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

bool CliOptions::Has(const std::string& name) const {
  return flags.find(name) != flags.end();
}

StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args) {
  if (args.empty()) {
    return InvalidArgumentError("no command given (try 'doppler help')");
  }
  CliOptions options;
  options.command = args[0];
  std::size_t i = 1;
  while (i < args.size()) {
    if (!StartsWith(args[i], "--") || args[i].size() <= 2) {
      return InvalidArgumentError("expected --flag, got '" + args[i] + "'");
    }
    const std::string flag = args[i].substr(2);
    ++i;
    // --flag=value binds inline; otherwise the next non-flag token (if
    // any) is the value and a missing one makes a boolean flag.
    const std::size_t equals = flag.find('=');
    if (equals != std::string::npos) {
      options.flags[flag.substr(0, equals)] = flag.substr(equals + 1);
    } else if (i < args.size() && !StartsWith(args[i], "--")) {
      options.flags[flag] = args[i];
      ++i;
    } else {
      options.flags[flag] = "";  // Boolean flag.
    }
  }
  // An unknown command has no flag set; RunCli reports it.
  if (const Command* command = FindCommand(options.command)) {
    for (const auto& [flag, value] : options.flags) {
      if (command->flags.count(flag) == 0 && GlobalFlags().count(flag) == 0) {
        return InvalidArgumentError("unknown flag --" + flag + " for '" +
                                    options.command + "'");
      }
    }
  }
  return options;
}

StatusOr<int> RunCli(const CliOptions& options, std::ostream& out) {
  const Command* command = FindCommand(options.command);
  if (command == nullptr) {
    return InvalidArgumentError("unknown command '" + options.command +
                                "' (try 'doppler help')");
  }
  return command->run(options, out);
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 3;
    case StatusCode::kNotFound:
      return 4;
    case StatusCode::kFailedPrecondition:
      return 5;
    case StatusCode::kOutOfRange:
      return 6;
    case StatusCode::kUnavailable:
      return 7;
    case StatusCode::kInternal:
      return 8;
    case StatusCode::kResourceExhausted:
      return 9;
    case StatusCode::kDeadlineExceeded:
      return 10;
  }
  return 8;
}

int CliMain(const std::vector<std::string>& args, std::ostream& out) {
  StatusOr<CliOptions> options = ParseCliArgs(args);
  if (!options.ok()) {
    out << "error: " << options.status().message() << "\n" << kUsage;
    return 2;
  }
  const Status global = ApplyGlobalFlags(*options);
  if (!global.ok()) {
    out << "error: " << global.message() << "\n" << kUsage;
    return 2;
  }
  StatusOr<int> code = RunCli(*options, out);
  // Export even when the command failed: the metrics and spans recorded up
  // to the failure point are the debugging record.
  const Status exported = ExportObservability(*options);
  if (!exported.ok()) {
    out << "error: " << exported.ToString() << "\n";
    if (code.ok()) return ExitCodeForStatus(exported);
  }
  if (!code.ok()) {
    out << "error: " << code.status().ToString() << "\n";
    return ExitCodeForStatus(code.status());
  }
  return *code;
}

}  // namespace doppler::dma
