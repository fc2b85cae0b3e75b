#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "catalog/catalog.h"
#include "catalog/pricing.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "dma/preprocess.h"
#include "dma/resource_report.h"
#include "dma/static_inputs.h"
#include "exec/fleet_assessor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quality/quality_gate.h"
#include "serve/assessment_service.h"
#include "serve/snapshot_registry.h"
#include "stream/monitor.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace dma = doppler::dma;
namespace obs = doppler::obs;
using doppler::StatusOr;

// Every workload is sized for, and driven with, this many workers.
constexpr int kJobs = 4;
// serve_open's fixed offered rate: about 40% of the ~480 req/s capacity
// measured on 4 cores at this confidence mix. Every kServeConfidenceEvery-th
// request asks for confidence: the share is exact and confidence requests
// never bunch up; the seed decides the traces they carry.
constexpr double kServeRate = 200.0;
constexpr long long kServeConfidenceEvery = 8;
constexpr int kServeQueueDepth = 64;
// Two seconds of requests per tail window (p97.5): the tail then sits among
// the confidence requests rather than on the rare overlaps of two of them,
// which moved with the host's load from run to run.
constexpr std::size_t kServeTailWindow = 400;
// Set-up is repeated for at least kSetupSeconds and kMinSetupRepeats times
// and reported as the median: a cold `doppler assess` costs ~0.5 s, the
// other set-ups milliseconds or less.
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinSetupRepeats = 5;

// ---------------------------------------------------------------------------
// Shared helpers

doppler::quality::GateOptions RepairGate() {
  doppler::quality::GateOptions gate;
  gate.policy = doppler::quality::QualityPolicy::kRepair;
  return gate;
}

std::string FileStem(const std::string& path) {
  return fs::path(path).filename().string();
}

// The elastic pick of one assessment document: SKU id and the rendered
// monthly cost, compared as text so both sides share the formatter.
struct Pick {
  std::string sku;
  std::string cost;
  bool operator==(const Pick& other) const {
    return sku == other.sku && cost == other.cost;
  }
};

// Reads the first elastic pick at or after `from` in rendered JSON.
bool ParsePick(const std::string& doc, std::size_t from, Pick* pick) {
  const std::size_t elastic = doc.find("\"elastic\":{", from);
  if (elastic == std::string::npos) return false;
  const std::string sku_key = "\"sku_id\":\"";
  const std::size_t sku = doc.find(sku_key, elastic);
  const std::string cost_key = "\"monthly_cost\":";
  const std::size_t cost = doc.find(cost_key, elastic);
  if (sku == std::string::npos || cost == std::string::npos) return false;
  const std::size_t sku_begin = sku + sku_key.size();
  pick->sku = doc.substr(sku_begin, doc.find('"', sku_begin) - sku_begin);
  const std::size_t cost_begin = cost + cost_key.size();
  pick->cost = doc.substr(cost_begin,
                          doc.find_first_of(",}", cost_begin) - cost_begin);
  return true;
}

Pick PickOf(const dma::AssessmentOutcome& outcome) {
  dma::AssessmentJsonOptions options;
  options.include_stage_seconds = false;
  Pick pick;
  ParsePick(dma::RenderAssessmentJson(outcome, options), 0, &pick);
  return pick;
}

// customer_id -> pick for every successful slot of an assess-batch report;
// `failed` receives the report's failed-slot count.
std::map<std::string, Pick> ParseBatchReport(const std::string& doc,
                                             long long* fleet_size,
                                             long long* failed) {
  std::map<std::string, Pick> picks;
  auto header_int = [&doc](const std::string& key) -> long long {
    const std::size_t at = doc.find("\"" + key + "\":");
    if (at == std::string::npos) return -1;
    return std::atoll(doc.c_str() + at + key.size() + 3);
  };
  *fleet_size = header_int("fleet_size");
  *failed = header_int("failed");
  const std::string id_key = "{\"customer_id\":\"";
  std::size_t at = doc.find(id_key);
  while (at != std::string::npos) {
    const std::size_t id_begin = at + id_key.size();
    const std::string id =
        doc.substr(id_begin, doc.find('"', id_begin) - id_begin);
    const std::size_t next = doc.find(id_key, id_begin);
    Pick pick;
    const std::size_t elastic = doc.find("\"elastic\":{", id_begin);
    if (elastic < next && ParsePick(doc, id_begin, &pick)) picks[id] = pick;
    at = next;
  }
  return picks;
}

// Sum of the numbers following every `"key":` in a JSON document.
double SumOf(const std::string& doc, const std::string& key) {
  const std::string pattern = "\"" + key + "\":";
  double sum = 0.0;
  for (std::size_t at = doc.find(pattern); at != std::string::npos;
       at = doc.find(pattern, at + 1)) {
    sum += std::strtod(doc.c_str() + at + pattern.size(), nullptr);
  }
  return sum;
}

// The group model `doppler assess` fits when no --profiles is given.
StatusOr<doppler::core::GroupModel> FitDefaultModel(
    const doppler::catalog::SkuCatalog& skus) {
  const doppler::catalog::DefaultPricing pricing;
  const doppler::core::NonParametricEstimator estimator;
  return dma::FitGroupModelOffline(skus, pricing, estimator,
                                   doppler::catalog::Deployment::kSqlDb,
                                   /*num_customers=*/120, /*seed=*/11);
}

// A gated trace as the CLI builds its request from it.
StatusOr<dma::AssessmentRequest> GatedRequest(const std::string& path,
                                              const std::string& id) {
  StatusOr<doppler::quality::GatedTrace> gated =
      doppler::quality::ReadTraceFileGated(path, RepairGate());
  if (!gated.ok()) return gated.status();
  dma::AssessmentRequest request;
  request.customer_id = id;
  request.target = doppler::catalog::Deployment::kSqlDb;
  request.database_traces = {std::move(gated->trace)};
  request.quality_policy = doppler::quality::QualityPolicy::kRepair;
  request.ingest_quality = std::move(gated->report);
  return request;
}

double SkusScored() {
  return static_cast<double>(
      obs::DefaultMetrics().GetCounter("ppm.skus_evaluated")->Value());
}

// ---------------------------------------------------------------------------
// Per-layer accounting of the traced run

// Counts of a rendered assessment or batch report. (Stage times need no
// parsing: each stage runs under a span of its own name.)
void AddReport(Layers* layers, const std::string& doc) {
  layers->Count("core.resamples", SumOf(doc, "runs"));
  layers->Count("telemetry.rows", SumOf(doc, "samples_in"));
  layers->Count("quality.repairs", SumOf(doc, "repaired_defects"));
  layers->Count("dma.report_bytes", static_cast<double>(doc.size()));
}

// Layout resolution is not a timed stage: it is what a `pipeline.assess`
// span holds beyond its stage spans. The service runs the stages without
// that span, and the monitor runs only some of them, so only the CLI
// workloads report it.
void AddLayoutRemainder(Layers* layers) {
  static const char* const kStages[] = {
      "pipeline.preprocess", "pipeline.quality",    "pipeline.recommend",
      "pipeline.baseline",   "pipeline.confidence", "pipeline.rightsizing"};
  const Layers::Layer assess = layers->time["pipeline.assess"];
  double staged = 0.0;
  for (const char* stage : kStages) staged += layers->time[stage].seconds;
  layers->Add("dma.layout", std::max(0.0, assess.seconds - staged),
              assess.calls);
}

struct LayerMetric {
  const char* name;
  const char* unit;
  // The layer whose mean time per call the metric reports; nullptr for a
  // count of the metric's own name.
  const char* layer;
};

// Every per-layer metric, in BENCHMARK.json order. Counts and ratios are
// totals over the traced run. A metric a workload never touches reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"dma.model_ms", "ms", "dma.model"},
    {"catalog.build_ms", "ms", "catalog.build"},
    {"catalog.compile_ms", "ms", "catalog.compile"},
    {"telemetry.ingest_ms", "ms", "quality.gate_csv"},
    {"telemetry.rows", "count", nullptr},
    {"quality.repairs", "count", nullptr},
    {"dma.preprocess_ms", "ms", "pipeline.preprocess"},
    {"dma.quality_ms", "ms", "pipeline.quality"},
    {"dma.layout_ms", "ms", "dma.layout"},
    {"core.curve_ms", "ms", "ppm.curve_build"},
    {"core.recommend_ms", "ms", "pipeline.recommend"},
    {"core.skus_scored", "count", nullptr},
    {"core.baseline_ms", "ms", "pipeline.baseline"},
    {"core.confidence_ms", "ms", "pipeline.confidence"},
    {"core.resamples", "count", nullptr},
    {"dma.render_ms", "ms", "dma.render"},
    {"dma.report_bytes", "bytes", nullptr},
    {"exec.assess_all_ms", "ms", "exec.fleet_assess"},
    {"exec.efficiency", "ratio", nullptr},
    {"serve.submit_us", "us", "serve.submit"},
    {"serve.admitted", "count", nullptr},
    {"serve.shed", "count", nullptr},
    {"serve.degraded", "count", nullptr},
    {"serve.expired", "count", nullptr},
    {"serve.gen_lag_ms", "ms", nullptr},
    {"stream.append_us_per_row", "us", nullptr},
    {"stream.drift_check_us", "us", "stream.drift_check"},
    {"stream.reassess_ms", "ms", nullptr},
    {"stream.reassess_share", "ratio", nullptr},
    {"uncovered_share", "ratio", nullptr},
    {"tracing_overhead_s", "s", nullptr},
};

// Fills the per-layer metrics and prints the layer table: each layer's
// calls, time, and share of the traced wall (layers that run on worker
// threads sum over threads, so their share can exceed the wall's).
// `uncovered_share` is the part of the wall outside depth-0 spans of the
// main thread; `overhead_s` is the same work traced minus untraced.
void FinishTraced(Layers& layers, double traced_wall, double overhead_s,
                  Result* result) {
  layers.Count("uncovered_share",
               std::max(0.0, 1.0 - layers.top_level_seconds / traced_wall));
  layers.Count("tracing_overhead_s", overhead_s);

  std::ostringstream table;
  table << "layers (traced wall " << std::fixed << std::setprecision(3)
        << traced_wall << " s, tracing overhead " << overhead_s << " s):\n";
  for (const auto& [name, layer] : layers.time) {
    if (layer.calls == 0) continue;
    table << "  " << std::left << std::setw(22) << name << std::right
          << " calls " << std::setw(8) << std::setprecision(0) << layer.calls
          << "  total " << std::setw(10) << std::setprecision(3)
          << layer.seconds * 1e3 << " ms  share " << std::setw(6)
          << std::setprecision(3) << layer.seconds / traced_wall
          << (layer.top_level ? "  (top level)" : "") << "\n";
  }
  table << "  covered by top-level spans: " << std::setprecision(3)
        << layers.top_level_seconds / traced_wall;
  result->notes.push_back(table.str());

  for (const LayerMetric& metric : kLayerMetrics) {
    double value = layers.CountOf(metric.name);
    if (metric.layer != nullptr) {
      value = 0.0;
      const auto it = layers.time.find(metric.layer);
      if (it != layers.time.end() && it->second.calls > 0) {
        value = it->second.seconds / it->second.calls *
                (std::strcmp(metric.unit, "ms") == 0 ? 1e3 : 1e6);
      }
    }
    result->metrics.push_back({metric.name, value, metric.unit});
  }
}

// Traces the in-process region `run` with the library's span buffer on,
// then folds its spans into `layers`; returns the region's wall.
template <typename Fn>
double TracedRegion(const RunContext& ctx, Layers* layers, Fn&& run) {
  obs::ClearTraceBuffer();
  obs::SetTracingEnabled(true);
  const double start = Now();
  run();
  const double wall = Now() - start;
  obs::SetTracingEnabled(false);
  layers->AddSpans(obs::SnapshotSpans());
  (void)obs::WriteChromeTrace(ctx.work + "/trace.json");
  return wall;
}

// ---------------------------------------------------------------------------
// End-to-end metrics of the untraced run

void AddEndToEnd(Result* result, double setup_s, const Summary& ops,
                 double throughput, double peak_rss_mb) {
  result->metrics.push_back({"setup_s", setup_s, "s"});
  result->metrics.push_back({"op_p50_ms", ops.p50 * 1e3, "ms"});
  result->metrics.push_back({"op_tail_ms", ops.tail * 1e3, "ms"});
  result->metrics.push_back({"throughput_per_s", throughput, "1/s"});
  result->metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  std::ostringstream line;
  line << "ops " << ops.n << "; tail is p" << std::setprecision(4)
       << ops.tail_percentile << " (" << ops.n << " samples"
       << (ops.tail_percentile >= 100.0 ? ", fewer than 21: maximum" : "");
  if (ops.windows > 1) {
    line << ", median over " << ops.windows << " windows of " << ops.window;
  }
  line << ")";
  result->notes.push_back(line.str());
}

void NoteFailShare(Result* result) {
  std::ostringstream line;
  line << "fail_share " << std::setprecision(6)
       << (result->attempted > 0 ? static_cast<double>(result->failed) /
                                       static_cast<double>(result->attempted)
                                 : 0.0)
       << " (" << result->failed << " of " << result->attempted << ")";
  result->notes.push_back(line.str());
}

// Median of repeated timings of `once` (see kSetupSeconds).
template <typename Fn>
double RepeatedSetup(Fn&& once) {
  std::vector<double> walls;
  const double start = Now();
  while (walls.size() < kMinSetupRepeats || Now() - start < kSetupSeconds) {
    walls.push_back(once());
  }
  return Median(walls);
}

// Spawned workloads' set-up: the same command over the minimal one-trace
// input.
double SpawnedSetup(const std::vector<std::string>& argv,
                    const std::string& out, Result* result) {
  return RepeatedSetup([&] {
    const ChildRun run = RunChild(argv, out);
    if (run.exit_code != 0) {
      result->Fail("set-up command exited " + std::to_string(run.exit_code));
    }
    return run.seconds;
  });
}

// `argv` with the CLI's observability flags: a Chrome trace of its spans
// and its metrics registry, written next to `stem`.
std::vector<std::string> WithTracing(std::vector<std::string> argv,
                                     const std::string& stem) {
  argv.insert(argv.end(), {"--trace-out", stem + ".trace.json",
                           "--metrics-out", stem + ".metrics.json"});
  return argv;
}

// Folds one traced CLI process into the layers: its spans, its report and
// the SKUs it scored.
void AddTracedChild(Layers* layers, const std::string& stem,
                    const std::string& report) {
  layers->AddSpans(ReadChromeTrace(stem + ".trace.json"));
  AddReport(layers, report);
  layers->Count("core.skus_scored",
                SumOf(ReadFile(stem + ".metrics.json"), "ppm.skus_evaluated"));
}

// ---------------------------------------------------------------------------
// oneshot_cold: fresh `doppler assess --confidence --json` processes, no
// --profiles, one after another.

std::vector<std::string> AssessArgv(const RunContext& ctx,
                                    const std::string& trace) {
  return {ctx.doppler, "assess", "--trace", trace, "--confidence", "--json"};
}

// What `doppler assess` builds before it reads a request: the catalog, the
// fitted group model and the compiled pipeline. The library does not span
// these, so the traced run times them in-process; `fit_skus` receives the
// SKUs the fit scored.
StatusOr<dma::SkuRecommendationPipeline> OneshotSetup(Layers* layers,
                                                      double* fit_skus) {
  double start = Now();
  doppler::catalog::SkuCatalog skus = doppler::catalog::BuildAzureLikeCatalog();
  if (layers != nullptr) layers->Add("catalog.build", Now() - start);
  start = Now();
  const double skus_before = SkusScored();
  StatusOr<doppler::core::GroupModel> model = FitDefaultModel(skus);
  if (!model.ok()) return model.status();
  if (layers != nullptr) layers->Add("dma.model", Now() - start);
  if (fit_skus != nullptr) *fit_skus = SkusScored() - skus_before;
  start = Now();
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create(
          {std::move(skus), std::move(*model)});
  if (layers != nullptr) layers->Add("catalog.compile", Now() - start);
  return pipeline;
}

// Reference outcomes: an in-process Assess of each gated trace under the
// default fitted model. Failed traces are absent.
std::map<std::size_t, dma::AssessmentOutcome> OneshotReference(
    const dma::SkuRecommendationPipeline& pipeline,
    const std::vector<std::string>& traces) {
  std::map<std::size_t, dma::AssessmentOutcome> expected;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    StatusOr<dma::AssessmentRequest> request =
        GatedRequest(traces[i], traces[i]);
    if (!request.ok()) continue;
    request->compute_confidence = true;
    StatusOr<dma::AssessmentOutcome> outcome = pipeline.Assess(*request);
    if (outcome.ok()) expected.emplace(i, std::move(*outcome));
  }
  return expected;
}

// Check: a report's elastic pick equals the reference outcome's.
void CheckOneshotReport(const std::string& report, std::size_t index,
                        const std::vector<std::string>& traces,
                        const std::map<std::size_t, dma::AssessmentOutcome>&
                            expected,
                        Result* result) {
  Pick pick;
  const auto want = expected.find(index % traces.size());
  if (want == expected.end() || !ParsePick(report, 0, &pick) ||
      !(pick == PickOf(want->second))) {
    result->Fail("assess report " + std::to_string(index) + " (" +
                 FileStem(traces[index % traces.size()]) +
                 ") differs from the in-process assessment");
  }
}

Result OneshotTraced(const RunContext& ctx,
                     const std::vector<std::string>& traces) {
  // Fixed work: per trace, the process untraced, then traced (the CLI's
  // --trace-out/--metrics-out), then the set-up layers the library does
  // not span, in-process.
  Result result;
  Layers layers;
  double untraced = 0.0;
  double traced = 0.0;
  double fit_skus = 0.0;
  int traced_children = 0;
  std::vector<std::string> reports(traces.size());
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      doppler::InternalError("no set-up ran");
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string stem = ctx.work + "/op" + std::to_string(i);
    untraced += RunChild(AssessArgv(ctx, traces[i]), stem + ".json").seconds;
    const ChildRun run = RunChild(WithTracing(AssessArgv(ctx, traces[i]), stem),
                                  stem + ".json");
    traced += run.seconds;
    ++result.attempted;
    if (run.exit_code != 0) {
      ++result.failed;
    } else {
      reports[i] = ReadFile(stem + ".json");
      AddTracedChild(&layers, stem, reports[i]);
      ++traced_children;
    }
    pipeline = OneshotSetup(&layers, &fit_skus);
  }
  if (!pipeline.ok()) {
    result.Fail("in-process set-up failed");
    return result;
  }
  // The children's SKU counter includes their group-model fits.
  layers.Count("core.skus_scored", -fit_skus * traced_children);
  const auto expected = OneshotReference(*pipeline, traces);
  for (const auto& [index, outcome] : expected) {
    const double start = Now();
    const std::string rendered = dma::RenderAssessmentJson(outcome) + "\n";
    layers.Add("dma.render", Now() - start);
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (!reports[i].empty()) {
      CheckOneshotReport(reports[i], i, traces, expected, &result);
    }
  }
  AddLayoutRemainder(&layers);
  FinishTraced(layers, traced, traced - untraced, &result);
  return result;
}

Result RunOneshot(const RunContext& ctx) {
  const std::vector<std::string> traces =
      ListCsv(WorkloadDir(ctx.inputs, ctx.workload));
  if (ctx.trace) return OneshotTraced(ctx, traces);

  Result result;
  const double setup =
      SpawnedSetup(AssessArgv(ctx, MinimalDir(ctx.inputs) + "/minimal.csv"),
                   ctx.work + "/setup.json", &result);

  std::vector<double> walls;
  double peak_rss = 0.0;
  std::vector<std::size_t> succeeded;  // ops that exited 0
  const double start = Now();
  std::size_t op = 0;
  while (op < traces.size() || Now() - start < ctx.seconds) {
    const std::size_t which = op % traces.size();
    const ChildRun run = RunChild(AssessArgv(ctx, traces[which]),
                                  ctx.work + "/op" + std::to_string(op) +
                                      ".json");
    ++result.attempted;
    walls.push_back(run.seconds);
    peak_rss = std::max(peak_rss, run.peak_rss_mb);
    if (run.exit_code == 0) {
      succeeded.push_back(op);
    } else {
      ++result.failed;
    }
    ++op;
  }
  const double wall = Now() - start;
  AddEndToEnd(&result, setup, Summarize(walls),
              static_cast<double>(op) / wall, peak_rss);
  NoteFailShare(&result);

  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      OneshotSetup(nullptr, nullptr);
  if (!pipeline.ok()) {
    result.Fail("reference pipeline failed");
    return result;
  }
  const auto expected = OneshotReference(*pipeline, traces);
  for (std::size_t index : succeeded) {
    CheckOneshotReport(
        ReadFile(ctx.work + "/op" + std::to_string(index) + ".json"), index,
        traces, expected, &result);
    if (!result.correct) break;
  }
  return result;
}

// ---------------------------------------------------------------------------
// estate_batch: `doppler assess-batch --jobs 4` over the whole estate.

std::vector<std::string> BatchArgv(const RunContext& ctx,
                                   const std::string& dir,
                                   const std::string& out) {
  return {ctx.doppler, "assess-batch", "--traces", dir, "--profiles",
          ProfilesPath(ctx.inputs), "--jobs", std::to_string(kJobs),
          "--json", "--out", out};
}

// What `doppler assess-batch` builds before it reads the estate: the
// catalog, the loaded --profiles model and the compiled pipeline, timed
// into `layers` when given.
StatusOr<dma::SkuRecommendationPipeline> EstateSetup(const RunContext& ctx,
                                                     Layers* layers) {
  double start = Now();
  doppler::catalog::SkuCatalog skus = doppler::catalog::BuildAzureLikeCatalog();
  if (layers != nullptr) layers->Add("catalog.build", Now() - start);
  start = Now();
  StatusOr<doppler::core::GroupModel> model =
      dma::LoadGroupModel(ProfilesPath(ctx.inputs));
  if (!model.ok()) return model.status();
  if (layers != nullptr) layers->Add("dma.model", Now() - start);
  start = Now();
  dma::SkuRecommendationPipeline::Config config;
  config.num_threads = kJobs;
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      dma::SkuRecommendationPipeline::Create(
          {std::move(skus), std::move(*model)}, config);
  if (layers != nullptr) layers->Add("catalog.compile", Now() - start);
  return pipeline;
}

// Reference outcomes: an in-process Assess of every gated trace under the
// --profiles model, in file order; unreadable traces are error slots.
struct EstateReference {
  std::vector<std::string> slot_ids;
  std::vector<StatusOr<dma::AssessmentOutcome>> outcomes;
  std::map<std::string, Pick> picks;
};

EstateReference AssessEstate(const dma::SkuRecommendationPipeline& pipeline,
                             const std::vector<std::string>& files) {
  EstateReference reference;
  std::vector<dma::AssessmentRequest> requests;
  std::vector<std::size_t> slots;
  for (const std::string& file : files) {
    reference.slot_ids.push_back(FileStem(file));
    StatusOr<dma::AssessmentRequest> request =
        GatedRequest(file, FileStem(file));
    if (!request.ok()) {
      reference.outcomes.emplace_back(request.status());
      continue;
    }
    slots.push_back(reference.outcomes.size());
    reference.outcomes.emplace_back(doppler::InternalError("not assessed"));
    requests.push_back(std::move(*request));
  }
  const doppler::exec::FleetAssessor assessor(&pipeline, kJobs);
  std::vector<StatusOr<dma::AssessmentOutcome>> assessed =
      assessor.AssessAll(requests);
  for (std::size_t i = 0; i < assessed.size(); ++i) {
    if (assessed[i].ok()) {
      reference.picks[requests[i].customer_id] = PickOf(*assessed[i]);
    }
    reference.outcomes[slots[i]] = std::move(assessed[i]);
  }
  return reference;
}

// Check: a batch report covers the estate and every slot's elastic pick
// equals the reference's. Adds the report's slots to attempted/failed.
void CheckBatchReport(const std::string& report, const std::string& label,
                      std::size_t estate_size,
                      const EstateReference& reference, Result* result) {
  long long fleet_size = 0;
  long long failed = 0;
  const auto picks = ParseBatchReport(report, &fleet_size, &failed);
  result->attempted += fleet_size;
  result->failed += failed;
  if (fleet_size != static_cast<long long>(estate_size) ||
      picks != reference.picks) {
    result->Fail("assess-batch report " + label +
                 " differs from the in-process assessments (" +
                 std::to_string(picks.size()) + " vs " +
                 std::to_string(reference.picks.size()) + " picks)");
  }
}

Result EstateTraced(const RunContext& ctx, const std::string& estate,
                    const std::vector<std::string>& files) {
  // Fixed work: the process untraced, traced (the CLI's
  // --trace-out/--metrics-out) and untraced again; the overhead is against
  // the mean of the untraced two. Then the set-up layers the library does
  // not span and the render, in-process.
  Result result;
  Layers layers;
  const std::vector<std::string> argv =
      BatchArgv(ctx, estate, ctx.work + "/batch.json");
  const std::string stem = ctx.work + "/batch";
  const double before = RunChild(argv, stem + ".out").seconds;
  const ChildRun traced = RunChild(WithTracing(argv, stem), stem + ".out");
  const std::string report = ReadFile(ctx.work + "/batch.json");
  const double after = RunChild(argv, stem + ".out").seconds;
  if (traced.exit_code == 0 || traced.exit_code == 1) {
    AddTracedChild(&layers, stem, report);
  }
  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      EstateSetup(ctx, &layers);
  if (!pipeline.ok()) {
    result.Fail("in-process set-up failed");
    return result;
  }
  const EstateReference reference = AssessEstate(*pipeline, files);
  {
    dma::AssessmentJsonOptions options;
    options.include_stage_seconds = false;  // assess-batch without --timings
    const double start = Now();
    const std::string rendered = dma::RenderFleetAssessmentJson(
        reference.slot_ids, reference.outcomes, options);
    layers.Add("dma.render", Now() - start);
  }
  const Layers::Layer fan_out = layers.time["exec.fleet_assess"];
  if (fan_out.seconds > 0.0) {
    layers.Count("exec.efficiency", layers.time["pipeline.assess"].seconds /
                                        (kJobs * fan_out.seconds));
  }
  AddLayoutRemainder(&layers);
  FinishTraced(layers, traced.seconds,
               traced.seconds - 0.5 * (before + after), &result);
  if (traced.exit_code == 0 || traced.exit_code == 1) {
    CheckBatchReport(report, "(traced)", files.size(), reference, &result);
  } else {
    result.attempted = result.failed = static_cast<long long>(files.size());
  }
  return result;
}

Result RunEstate(const RunContext& ctx) {
  const std::string estate = WorkloadDir(ctx.inputs, ctx.workload);
  const std::vector<std::string> files = ListCsv(estate);
  if (ctx.trace) return EstateTraced(ctx, estate, files);

  Result result;
  const double setup = SpawnedSetup(
      BatchArgv(ctx, MinimalDir(ctx.inputs), ctx.work + "/setup.json"),
      ctx.work + "/setup.out", &result);

  std::vector<double> walls;
  std::vector<int> reports;
  double peak_rss = 0.0;
  const double start = Now();
  int op = 0;
  while (op < 3 || Now() - start < ctx.seconds) {
    const std::string out = ctx.work + "/batch" + std::to_string(op) + ".json";
    const ChildRun run =
        RunChild(BatchArgv(ctx, estate, out), ctx.work + "/batch.out");
    walls.push_back(run.seconds);
    peak_rss = std::max(peak_rss, run.peak_rss_mb);
    if (run.exit_code == 0 || run.exit_code == 1) {
      reports.push_back(op);
    } else {
      result.attempted += static_cast<long long>(files.size());
      result.failed += static_cast<long long>(files.size());
    }
    ++op;
  }
  const Summary ops = Summarize(walls);
  AddEndToEnd(&result, setup, ops,
              static_cast<double>(files.size()) / ops.p50, peak_rss);

  StatusOr<dma::SkuRecommendationPipeline> pipeline =
      EstateSetup(ctx, nullptr);
  if (!pipeline.ok()) {
    result.Fail("reference pipeline failed");
    return result;
  }
  const EstateReference reference = AssessEstate(*pipeline, files);
  for (int index : reports) {
    CheckBatchReport(
        ReadFile(ctx.work + "/batch" + std::to_string(index) + ".json"),
        std::to_string(index), files.size(), reference, &result);
  }
  NoteFailShare(&result);
  return result;
}

// ---------------------------------------------------------------------------
// Set-up shared by the in-process workloads: catalog, model, pipeline and
// the service or the monitor, each under a span.

// Members are declared in dependency order, so destruction (reverse
// order) stops the service or monitor before what it borrows.
struct ServingStack {
  std::shared_ptr<const dma::SkuRecommendationPipeline> pipeline;
  std::unique_ptr<doppler::serve::SnapshotRegistry> registry;
  std::unique_ptr<doppler::serve::AssessmentService> service;
  std::unique_ptr<doppler::stream::StreamMonitor> monitor;
};

// Builds catalog, model (a --profiles load), pipeline (the default Config,
// as `doppler serve` and `doppler monitor` build theirs: each pipeline
// scores SKUs on its own pool), then the service or the monitor. On
// failure the returned stack holds no pipeline.
ServingStack BuildStack(const RunContext& ctx, bool serve) {
  ServingStack stack;
  doppler::catalog::SkuCatalog skus = [&] {
    DOPPLER_TRACE_SPAN("catalog.build");
    return doppler::catalog::BuildAzureLikeCatalog();
  }();
  StatusOr<doppler::core::GroupModel> model = [&] {
    DOPPLER_TRACE_SPAN("dma.model");
    return dma::LoadGroupModel(ProfilesPath(ctx.inputs));
  }();
  if (!model.ok()) return stack;
  {
    DOPPLER_TRACE_SPAN("catalog.compile");
    StatusOr<dma::SkuRecommendationPipeline> pipeline =
        dma::SkuRecommendationPipeline::Create(
            {std::move(skus), std::move(*model)});
    if (!pipeline.ok()) return stack;
    stack.pipeline = std::make_shared<const dma::SkuRecommendationPipeline>(
        std::move(*pipeline));
  }
  if (serve) {
    DOPPLER_TRACE_SPAN("serve.start");
    stack.registry =
        std::make_unique<doppler::serve::SnapshotRegistry>(stack.pipeline);
    doppler::serve::ServiceOptions options;
    options.workers = kJobs;
    options.queue_depth = kServeQueueDepth;
    stack.service = std::make_unique<doppler::serve::AssessmentService>(
        stack.registry.get(), options);
  } else {
    DOPPLER_TRACE_SPAN("stream.start");
    stack.monitor = std::make_unique<doppler::stream::StreamMonitor>(
        stack.pipeline.get(), doppler::stream::MonitorOptions());
  }
  return stack;
}

// Median of repeated timed set-ups; `kept` receives the last stack.
double TimedSetup(const RunContext& ctx, bool serve,
                  std::unique_ptr<ServingStack>* kept, Result* result) {
  const double setup = RepeatedSetup([&] {
    kept->reset();  // tear the previous stack down, untimed
    const double start = Now();
    ServingStack stack = BuildStack(ctx, serve);
    const double wall = Now() - start;
    *kept = std::make_unique<ServingStack>(std::move(stack));
    return wall;
  });
  if ((*kept)->pipeline == nullptr) result->Fail("set-up failed");
  return setup;
}

// ---------------------------------------------------------------------------
// serve_open: an open loop at kServeRate against AssessmentService::Submit
// with requests pre-ingested; each request is timed from its due time
// until its future resolves.

struct PooledRequest {
  bool ok = false;  ///< False when ingest failed (counts as a failure).
  dma::AssessmentRequest request;
};

struct OpenLoop {
  std::vector<double> latencies;
  std::vector<double> lags;
  long long attempted = 0;
  long long failed = 0;
  long long completed = 0;
  double wall = 0.0;
  /// (pool index, elastic pick) of every completed request.
  std::vector<std::pair<std::size_t, std::pair<std::string, double>>> picks;
};

// `layers`, when given, receives the confidence resamples (written by the
// collector thread only, read after it joins).
OpenLoop RunOpenLoop(doppler::serve::AssessmentService& service,
                     const std::vector<PooledRequest>& pool, double seconds,
                     Layers* layers) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    double due = 0.0;
    std::size_t pool_index = 0;
    std::size_t slot = 0;
    std::future<doppler::serve::ServeResponse> future;
  };
  OpenLoop loop;
  const long long total =
      std::max<long long>(1, static_cast<long long>(seconds * kServeRate));
  // When each request's last stage began, stamped by the worker at the
  // boundary before right-sizing (a no-op without a current SKU): the end
  // of the request's work.
  std::vector<double> finished(static_cast<std::size_t>(total), -1.0);

  std::mutex mu;
  std::condition_variable ready;
  std::deque<Pending> incoming;
  bool generator_done = false;
  // Written by the collector only; read after it joins.
  double last_done = 0.0;
  long long collector_failed = 0;

  // Drains responses in submission order. Completion is the worker's
  // stamp, so reading responses in order, or late, never delays it.
  std::thread collector([&] {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu);
        ready.wait(lock, [&] { return !incoming.empty() || generator_done; });
        if (incoming.empty()) break;
        pending = std::move(incoming.front());
        incoming.pop_front();
      }
      doppler::serve::ServeResponse response = pending.future.get();
      const double stamp = finished[pending.slot];
      const double done = stamp >= 0.0 ? stamp : Now();
      loop.latencies.push_back(done - pending.due);
      last_done = std::max(last_done, done);
      if (!response.status.ok() || !response.outcome.has_value()) {
        ++collector_failed;
        continue;
      }
      ++loop.completed;
      loop.picks.push_back({pending.pool_index,
                            {response.outcome->elastic.sku.id,
                             response.outcome->elastic.monthly_cost}});
      if (layers != nullptr && response.outcome->confidence.has_value()) {
        layers->Count("core.resamples", response.outcome->confidence->runs);
      }
    }
  });

  DOPPLER_TRACE_SPAN("serve.open_loop");
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  const double origin_s =
      std::chrono::duration<double>(origin.time_since_epoch()).count();
  for (long long k = 0; k < total; ++k) {
    const double offset = static_cast<double>(k) / kServeRate;
    const Clock::time_point due_at =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset));
    // Sleep most of the gap, then spin: a timer wake-up on a busy host can
    // be late by more than a whole short request.
    std::this_thread::sleep_until(due_at - std::chrono::microseconds(200));
    while (Clock::now() < due_at) {
    }
    const double due = origin_s + offset;
    loop.lags.push_back(std::max(0.0, Now() - due));
    const std::size_t index = static_cast<std::size_t>(k) % pool.size();
    ++loop.attempted;
    if (!pool[index].ok) {
      ++loop.failed;  // ingest failure: never reached the service
      continue;
    }
    dma::AssessmentRequest request = pool[index].request;
    request.compute_confidence = k % kServeConfidenceEvery == 0;
    double* stamp = &finished[static_cast<std::size_t>(k)];
    request.stage_boundary_hook = [stamp](const char* stage) {
      if (std::strcmp(stage, "pipeline.rightsizing") == 0) *stamp = Now();
    };
    StatusOr<std::future<doppler::serve::ServeResponse>> submitted = [&] {
      DOPPLER_TRACE_SPAN("serve.submit");
      return service.Submit(std::move(request));
    }();
    if (!submitted.ok()) {
      ++loop.failed;  // shed at admission
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      incoming.push_back({due, index, static_cast<std::size_t>(k),
                          std::move(*submitted)});
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  ready.notify_one();
  collector.join();
  loop.failed += collector_failed;
  loop.wall = std::max(last_done, Now()) - origin_s;
  return loop;
}

std::vector<PooledRequest> IngestPool(const RunContext& ctx) {
  std::vector<PooledRequest> pool;
  for (const std::string& file :
       ListCsv(WorkloadDir(ctx.inputs, ctx.workload))) {
    PooledRequest pooled;
    StatusOr<dma::AssessmentRequest> request =
        GatedRequest(file, FileStem(file));
    if (request.ok()) {
      pooled.ok = true;
      pooled.request = std::move(*request);
    }
    pool.push_back(std::move(pooled));
  }
  return pool;
}

// Check: the admission accounting identity, and every completed
// response's elastic pick equals an in-process Assess of its request.
void CheckServe(const ServingStack& stack,
                const std::vector<PooledRequest>& pool, const OpenLoop& loop,
                Result* result) {
  const doppler::serve::AssessmentService::Stats stats =
      stack.service->stats();
  std::ostringstream counts;
  counts << "serve stats: submitted " << stats.submitted << ", admitted "
         << stats.admitted << ", shed " << stats.shed << ", degraded "
         << stats.degraded << ", completed " << stats.completed
         << ", expired " << stats.expired << ", failed " << stats.failed;
  result->notes.push_back(counts.str());
  if (stats.submitted != stats.admitted + stats.shed ||
      stats.admitted != stats.completed + stats.expired + stats.failed) {
    result->Fail("serve accounting identity broken");
  }
  std::map<std::size_t, std::pair<std::string, double>> expected;
  for (const auto& [index, pick] : loop.picks) {
    if (expected.count(index) != 0) continue;
    StatusOr<dma::AssessmentOutcome> outcome =
        stack.pipeline->Assess(pool[index].request);
    if (!outcome.ok()) {
      result->Fail("reference assessment failed");
      return;
    }
    expected[index] = {outcome->elastic.sku.id, outcome->elastic.monthly_cost};
  }
  for (const auto& [index, pick] : loop.picks) {
    if (pick != expected[index]) {
      result->Fail("served pick for " + pool[index].request.customer_id +
                   " differs from the in-process assessment");
      return;
    }
  }
}

// Seconds the service's workers spent processing requests so far.
double ServeBusySeconds() {
  return obs::DefaultMetrics().GetHistogram("latency.serve.process")->Sum();
}

Result ServeTraced(const RunContext& ctx,
                   const std::vector<PooledRequest>& pool) {
  // Fixed work: the same open loop untraced, traced and untraced again.
  // Its wall is fixed by the offered rate, so the tracing overhead is the
  // workers' extra busy time, against the mean of the untraced two.
  Result result;
  const double seconds = std::min(ctx.seconds, 5.0);
  auto untraced_busy = [&]() -> double {
    ServingStack stack = BuildStack(ctx, true);
    if (stack.service == nullptr) return 0.0;
    // A request's serve.process span closes before its future resolves.
    const double busy = ServeBusySeconds();
    RunOpenLoop(*stack.service, pool, seconds, nullptr);
    return ServeBusySeconds() - busy;
  };
  const double before = untraced_busy();
  Layers layers;
  ServingStack stack;
  OpenLoop loop;
  double traced_busy = 0.0;
  const double skus = SkusScored();
  const double wall = TracedRegion(ctx, &layers, [&] {
    stack = BuildStack(ctx, true);
    if (stack.service == nullptr) return;
    const double busy = ServeBusySeconds();
    loop = RunOpenLoop(*stack.service, pool, seconds, &layers);
    traced_busy = ServeBusySeconds() - busy;
  });
  if (stack.service == nullptr) {
    result.Fail("set-up failed");
    return result;
  }
  layers.Count("core.skus_scored", SkusScored() - skus);
  const double after = untraced_busy();
  const doppler::serve::AssessmentService::Stats stats =
      stack.service->stats();
  layers.Count("serve.admitted", static_cast<double>(stats.admitted));
  layers.Count("serve.shed", static_cast<double>(stats.shed));
  layers.Count("serve.degraded", static_cast<double>(stats.degraded));
  layers.Count("serve.expired", static_cast<double>(stats.expired));
  std::vector<double> lags = loop.lags;
  std::sort(lags.begin(), lags.end());
  layers.Count("serve.gen_lag_ms",
               lags[static_cast<std::size_t>(0.99 * (lags.size() - 1))] * 1e3);
  FinishTraced(layers, wall, traced_busy - 0.5 * (before + after), &result);
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  CheckServe(stack, pool, loop, &result);
  return result;
}

Result RunServe(const RunContext& ctx) {
  const std::vector<PooledRequest> pool = IngestPool(ctx);
  if (ctx.trace) return ServeTraced(ctx, pool);

  Result result;
  std::unique_ptr<ServingStack> stack;
  const double setup = TimedSetup(ctx, true, &stack, &result);
  if (stack->service == nullptr) return result;
  OpenLoop loop = RunOpenLoop(*stack->service, pool, ctx.seconds, nullptr);
  const double peak_rss = SelfPeakRssMb();
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  AddEndToEnd(&result, setup, Summarize(loop.latencies, kServeTailWindow),
              static_cast<double>(loop.completed) / loop.wall, peak_rss);
  NoteFailShare(&result);
  const Summary lag = Summarize(loop.lags, kServeTailWindow);
  std::ostringstream line;
  line << "offered " << kServeRate << " req/s for " << ctx.seconds
       << " s; generator lag p50 " << std::setprecision(4) << lag.p50 * 1e3
       << " ms, p" << lag.tail_percentile << " " << lag.tail * 1e3 << " ms";
  result.notes.push_back(line.str());

  CheckServe(*stack, pool, loop, &result);
  return result;
}

// ---------------------------------------------------------------------------
// monitor_drift: day batches of every customer, interleaved day by day,
// each read through the gate, fed to StreamMonitor::Ingest and rendered.

struct BatchFile {
  std::string path;
  std::string customer;
};

std::vector<BatchFile> MonitorBatches(const RunContext& ctx) {
  std::vector<std::pair<std::string, BatchFile>> keyed;
  for (const std::string& path :
       ListCsv(WorkloadDir(ctx.inputs, ctx.workload))) {
    const std::string name = FileStem(path);
    const std::size_t dot = name.find('.');
    const std::string customer = name.substr(0, dot);
    const std::string batch = name.substr(dot + 1);
    keyed.push_back({batch + "/" + customer, {path, customer}});
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<BatchFile> batches;
  for (auto& [key, batch] : keyed) batches.push_back(std::move(batch));
  return batches;
}

struct MonitorPass {
  std::vector<double> latencies;
  long long failed = 0;
  std::map<std::string, int> initial;  ///< Initial assessments per customer.
  std::map<std::string, int> trips;    ///< Batches that tripped drift.
  long long assessed = 0;
};

// `layers`, when given, receives the traced run's counts and the per-row
// append cost of batches that assessed nothing.
MonitorPass RunMonitorPass(doppler::stream::StreamMonitor& monitor,
                           const std::vector<BatchFile>& batches,
                           Layers* layers) {
  MonitorPass pass;
  double append_path_seconds = 0.0;  // Ingest time of non-assessing batches
  double append_path_rows = 0.0;
  for (const BatchFile& batch : batches) {
    const double start = Now();
    StatusOr<doppler::quality::GatedTrace> gated = [&] {
      DOPPLER_TRACE_SPAN("telemetry.read");
      return doppler::quality::ReadTraceFileGated(batch.path, RepairGate());
    }();
    if (!gated.ok()) {
      ++pass.failed;
      pass.latencies.push_back(Now() - start);
      continue;
    }
    const double ingest_start = Now();
    StatusOr<doppler::stream::MonitorEvent> event = [&] {
      DOPPLER_TRACE_SPAN("stream.ingest");
      return monitor.Ingest(batch.customer, gated->trace);
    }();
    const double ingest_seconds = Now() - ingest_start;
    if (!event.ok()) {
      ++pass.failed;
      pass.latencies.push_back(Now() - start);
      continue;
    }
    const std::string line = [&] {
      DOPPLER_TRACE_SPAN("dma.render");
      return doppler::stream::RenderMonitorEventJson(*event);
    }();
    pass.latencies.push_back(Now() - start);

    if (event->assessed) ++pass.assessed;
    if (event->assessed && event->initial) ++pass.initial[batch.customer];
    if (!event->drifted_dims.empty()) ++pass.trips[batch.customer];
    if (layers != nullptr) {
      layers->Count("telemetry.rows", gated->report.samples_in);
      layers->Count("quality.repairs", gated->report.RepairedDefects());
      layers->Count("dma.report_bytes", static_cast<double>(line.size()));
      // Ingest runs the same drift check; timed alone, it is taken out of
      // the append cost.
      const doppler::stream::CustomerWindow* window =
          monitor.window(batch.customer);
      const double check_start = Now();
      {
        DOPPLER_TRACE_SPAN("stream.drift_check");
        window->DriftedDims(monitor.options().drift_tolerance,
                            monitor.options().drift_floor);
      }
      if (!event->assessed) {
        append_path_seconds += ingest_seconds - (Now() - check_start);
        append_path_rows += static_cast<double>(event->appended);
      }
    }
  }
  if (layers != nullptr && append_path_rows > 0) {
    layers->Count("stream.append_us_per_row",
                  append_path_seconds / append_path_rows * 1e6);
  }
  return pass;
}

std::set<std::string> ReadShifted(const std::string& path) {
  std::set<std::string> shifted;
  std::istringstream lines(ReadFile(path));
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) shifted.insert(line);
  }
  return shifted;
}

// Check: exactly one initial assessment per customer, drift trips only on
// the shifted customers, and at least one shifted customer tripped.
void CheckMonitorPass(const MonitorPass& pass,
                      const std::set<std::string>& shifted,
                      const std::vector<BatchFile>& batches, Result* result) {
  std::set<std::string> customers;
  for (const BatchFile& batch : batches) customers.insert(batch.customer);
  for (const std::string& customer : customers) {
    if (customer.rfind("bad", 0) == 0) continue;  // injected unparseable
    const auto it = pass.initial.find(customer);
    if (it == pass.initial.end() || it->second != 1) {
      result->Fail("customer " + customer +
                   " did not get exactly one initial assessment");
      return;
    }
  }
  bool shifted_tripped = false;
  for (const auto& [customer, trips] : pass.trips) {
    if (shifted.count(customer) == 0) {
      result->Fail("drift tripped on unshifted customer " + customer);
      return;
    }
    shifted_tripped = true;
  }
  if (!shifted.empty() && !shifted_tripped) {
    result->Fail("no shifted customer tripped the drift detector");
  }
}

Result MonitorTraced(const RunContext& ctx,
                     const std::vector<BatchFile>& batches,
                     const std::set<std::string>& shifted) {
  // Fixed work: set-up and one pass over the spool; after a warm-up pass,
  // untraced, traced and untraced again. The overhead is against the mean
  // of the untraced two.
  Result result;
  auto untraced = [&] {
    const double start = Now();
    ServingStack stack = BuildStack(ctx, false);
    if (stack.monitor != nullptr) {
      RunMonitorPass(*stack.monitor, batches, nullptr);
    }
    return Now() - start;
  };
  untraced();
  const double before = untraced();
  Layers layers;
  ServingStack stack;
  MonitorPass pass;
  const double skus = SkusScored();
  const double wall = TracedRegion(ctx, &layers, [&] {
    stack = BuildStack(ctx, false);
    if (stack.monitor != nullptr) {
      pass = RunMonitorPass(*stack.monitor, batches, &layers);
    }
  });
  if (stack.monitor == nullptr) {
    result.Fail("set-up failed");
    return result;
  }
  layers.Count("core.skus_scored", SkusScored() - skus);
  const double after = untraced();
  // Every assessment the monitor runs is an initial or a drift one.
  const Layers::Layer assess = layers.time["pipeline.assess"];
  if (assess.calls > 0) {
    layers.Count("stream.reassess_ms", assess.seconds / assess.calls * 1e3);
  }
  layers.Count("stream.reassess_share", static_cast<double>(pass.assessed) /
                                            static_cast<double>(batches.size()));
  FinishTraced(layers, wall, wall - 0.5 * (before + after), &result);
  CheckMonitorPass(pass, shifted, batches, &result);
  result.attempted = static_cast<long long>(batches.size());
  result.failed = pass.failed;
  return result;
}

Result RunMonitor(const RunContext& ctx) {
  const std::vector<BatchFile> batches = MonitorBatches(ctx);
  const std::set<std::string> shifted = ReadShifted(ShiftedListPath(ctx.inputs));
  if (ctx.trace) return MonitorTraced(ctx, batches, shifted);

  Result result;
  std::unique_ptr<ServingStack> stack;
  const double setup = TimedSetup(ctx, false, &stack, &result);
  if (stack->pipeline == nullptr) return result;
  std::vector<double> latencies;
  long long assessed = 0;
  int passes = 0;
  const double start = Now();
  while (passes == 0 || Now() - start < ctx.seconds) {
    // Each pass streams the whole spool into a fresh monitor. A pass is
    // kTailWindow batches at full scale, so each tail window holds every
    // customer's initial assessment.
    doppler::stream::StreamMonitor monitor(stack->pipeline.get(),
                                           doppler::stream::MonitorOptions());
    MonitorPass pass = RunMonitorPass(monitor, batches, nullptr);
    CheckMonitorPass(pass, shifted, batches, &result);
    latencies.insert(latencies.end(), pass.latencies.begin(),
                     pass.latencies.end());
    result.attempted += static_cast<long long>(batches.size());
    result.failed += pass.failed;
    assessed += pass.assessed;
    ++passes;
  }
  const double wall = Now() - start;
  AddEndToEnd(&result, setup, Summarize(latencies),
              static_cast<double>(latencies.size()) / wall, SelfPeakRssMb());
  NoteFailShare(&result);
  std::ostringstream line;
  line << passes << " passes of " << batches.size() << " batches; "
       << assessed << " assessments (" << shifted.size()
       << " shifted customers)";
  result.notes.push_back(line.str());
  return result;
}

}  // namespace

Result RunWorkload(const RunContext& ctx) {
  if (ctx.workload == "oneshot_cold") return RunOneshot(ctx);
  if (ctx.workload == "estate_batch") return RunEstate(ctx);
  if (ctx.workload == "serve_open") return RunServe(ctx);
  return RunMonitor(ctx);
}

}  // namespace perfbench
