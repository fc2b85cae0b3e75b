#ifndef DOPPLER_STREAM_MONITOR_H_
#define DOPPLER_STREAM_MONITOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/pricing.h"
#include "catalog/resource.h"
#include "core/drift.h"
#include "core/throttling.h"
#include "dma/pipeline.h"
#include "stream/streaming_trace.h"
#include "util/statusor.h"

namespace doppler::stream {

/// Tuning for the streaming monitor (DESIGN.md §13).
struct MonitorOptions {
  /// Sliding-window length per customer, in rows (default: one week at
  /// the DMA cadence). The ring always holds exactly this many rows once
  /// full.
  std::size_t window_rows = 7 * telemetry::kSamplesPerDay;
  /// Rows a new customer must accumulate before the initial assessment.
  std::size_t min_assess_rows = 2 * telemetry::kSamplesPerDay;
  /// A dimension drifts when its window mean moved by more than
  /// tolerance * max(|baseline mean|, floor) since the last assessment.
  double drift_tolerance = 0.25;
  double drift_floor = 1e-9;
  /// Migration target of monitor-triggered assessments.
  catalog::Deployment target = catalog::Deployment::kSqlDb;
  /// When set, drift re-assessments include the right-sizing stage
  /// against this SKU and additionally run core::DetectSkuDrift.
  std::string current_sku_id;
  /// Windowing of the SKU drift detector (used when current_sku_id set).
  core::DriftOptions sku_drift;
};

/// One customer's streaming state: the ring window of the last
/// `window_rows` rows plus the drift bookkeeping (the window means captured
/// at the last assessment). Window means are recomputed from the ring on
/// each read; nothing else is derived per row.
///
/// Thread-safe: a mutex serialises appends against reads, so a reader may
/// snapshot while an appender streams — the TSan soak drives exactly that.
class CustomerWindow {
 public:
  /// `dims` (typically the first batch's present dims) fixes the window
  /// schema; later batches must carry at least these dimensions.
  CustomerWindow(std::string customer_id,
                 const std::vector<catalog::ResourceDim>& dims,
                 const MonitorOptions& options);

  struct BatchResult {
    std::size_t appended = 0;
    std::size_t evicted = 0;
  };

  /// Appends every row of `batch` (evicting from the front as the ring
  /// fills). Fails without side effects when the batch lacks a window
  /// dimension.
  StatusOr<BatchResult> Append(const telemetry::PerfTrace& batch);

  const std::string& customer_id() const { return customer_id_; }
  const std::vector<catalog::ResourceDim>& dims() const {
    return trace_.dims();
  }

  std::size_t resident_rows() const;
  /// Lifetime row count (resident + evicted).
  std::uint64_t total_rows() const;

  /// Snapshot of the resident window as a frozen PerfTrace (seq order).
  telemetry::PerfTrace MaterializeTrace() const;

  /// Mean of the resident window (drift detection's signal):
  /// StreamingTrace::Mean, bit-identical to stats::Mean over
  /// MaterializeTrace()'s column.
  double WindowMean(catalog::ResourceDim dim) const;

  // --- Assessment bookkeeping (driven by StreamMonitor) ---------------

  bool assessed() const;
  /// Records that an assessment ran now: captures the current window
  /// means as the new drift baseline.
  void MarkAssessed();
  /// Dimensions whose window mean drifted past tolerance since the last
  /// MarkAssessed (empty before the first).
  std::vector<catalog::ResourceDim> DriftedDims(double tolerance,
                                                double floor) const;

 private:
  static constexpr std::size_t Index(catalog::ResourceDim dim) {
    return static_cast<std::size_t>(static_cast<int>(dim));
  }

  std::string customer_id_;
  mutable std::mutex mu_;
  StreamingTrace trace_;
  std::uint64_t total_rows_ = 0;
  bool assessed_ = false;
  std::array<double, catalog::kNumResourceDims> baseline_means_{};
};

/// What one ingested batch did to the stream (rendered by `doppler
/// monitor`).
struct MonitorEvent {
  std::string customer_id;
  std::size_t appended = 0;
  std::size_t evicted = 0;
  std::size_t resident = 0;
  /// Dimensions that tripped the drift detector on this batch.
  std::vector<catalog::ResourceDim> drifted_dims;
  /// An assessment ran on this batch (initial or drift-triggered).
  bool assessed = false;
  /// True for a customer's first assessment (full pipeline minus
  /// confidence), false for the cheap drift re-assessment.
  bool initial = false;
  /// The stage mask the assessment requested / completed.
  dma::StageMask stage_mask = 0;
  dma::StageMask completed_stages = 0;
  /// Elastic pick of the latest assessment on this batch.
  std::string elastic_sku_id;
  double elastic_monthly_cost = 0.0;
  double elastic_throttling_probability = 0.0;
  /// SKU drift report (only when options.current_sku_id set and drift
  /// tripped, and the detector had enough data).
  std::optional<core::DriftReport> sku_drift;
};

/// The `doppler monitor` engine: per-customer sliding windows fed from
/// telemetry batches, and drift-triggered re-assessment of ONLY the
/// affected stages through the shared pipeline (DESIGN.md §13).
///
/// Assessment policy: a customer's first min_assess_rows trigger one
/// initial assessment over {preprocess, quality, layout, recommend,
/// baseline} (+rightsizing when a current SKU is named) — everything but
/// the bootstrap confidence stage, which has no business on a monitoring
/// tick. Afterwards each batch compares window means against the baseline
/// captured at the last assessment; a tripped dimension re-runs only
/// {preprocess, quality, layout, recommend} (+rightsizing with a current
/// SKU). Stage executions are counted per stage under
/// `stream.stage_runs.<span-name>`, which is how the tests verify that
/// baseline/confidence never ride along on a drift tick.
class StreamMonitor {
 public:
  /// Borrows `pipeline` (must outlive the monitor).
  StreamMonitor(const dma::SkuRecommendationPipeline* pipeline,
                MonitorOptions options);

  /// Feeds one telemetry batch into `customer_id`'s window (created on
  /// first sight with the batch's dimensions) and runs the assessment
  /// policy. Thread-safe across customers.
  StatusOr<MonitorEvent> Ingest(const std::string& customer_id,
                                const telemetry::PerfTrace& batch);

  std::size_t num_customers() const;
  /// The customer's window, or nullptr when never seen.
  const CustomerWindow* window(const std::string& customer_id) const;

  const MonitorOptions& options() const { return options_; }

 private:
  StatusOr<CustomerWindow*> WindowFor(const std::string& customer_id,
                                      const telemetry::PerfTrace& batch);

  const dma::SkuRecommendationPipeline* pipeline_;
  MonitorOptions options_;
  /// Pricing/estimator for the SKU drift detector (the pipeline does not
  /// expose its own).
  catalog::DefaultPricing pricing_;
  core::NonParametricEstimator estimator_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CustomerWindow>> windows_;
};

/// One JSON object per event (machine-readable monitor output).
std::string RenderMonitorEventJson(const MonitorEvent& event);

/// One human-readable line per event.
std::string RenderMonitorEventText(const MonitorEvent& event);

}  // namespace doppler::stream

#endif  // DOPPLER_STREAM_MONITOR_H_
