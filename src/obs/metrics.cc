#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/json_writer.h"

namespace doppler::obs {

namespace {

/// Shortest round-trippable formatting for bucket bounds and values.
/// Non-finite values use the exposition-format spellings ("+Inf", "-Inf",
/// "NaN") — printf's "inf"/"nan" do not round-trip through Prometheus
/// parsers.
std::string FormatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  // %.17g is exact but ugly; prefer the shortest form that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) return candidate;
  }
  return buffer;
}

}  // namespace

/// Prometheus metric names allow [a-zA-Z0-9_:] and must not start with a
/// digit; dotted doppler names map to underscores under a common prefix.
/// Runs of invalid characters (dashes, dots, spaces) collapse into ONE
/// underscore and a trailing separator is dropped, so names carrying
/// digits or dashes ("serve.queue_depth", "latency.stage-1.p99",
/// "window.5m") sanitise to parser-clean names without `__` runs or
/// dangling underscores that some exposition parsers reject.
std::string PrometheusMetricName(const std::string& name) {
  std::string out = "doppler_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (ok) {
      out.push_back(c);
    } else if (out.back() != '_') {
      out.push_back('_');
    }
  }
  while (out.size() > 1 && out.back() == '_') out.pop_back();
  return out;
}

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  std::vector<std::uint64_t> buckets(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets[i] = BucketCount(i);
  return QuantileFromBuckets(bounds_, buckets,
                             count_.load(std::memory_order_relaxed), q);
}

const std::vector<double>& LatencyBucketBounds() {
  static const std::vector<double>* const kBounds = new std::vector<double>{
      1e-6,   2.5e-6, 5e-6,   1e-5,   2.5e-5, 5e-5,   1e-4,  2.5e-4,
      5e-4,   1e-3,   2.5e-3, 5e-3,   1e-2,   2.5e-2, 5e-2,  1e-1,
      2.5e-1, 5e-1,   1.0,    2.5,    5.0,    10.0};
  return *kBounds;
}

double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& buckets,
                           std::uint64_t count, double q) {
  if (count == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based rank of the target observation over the sorted samples.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t prev = cumulative;
    cumulative += buckets[i];
    if (rank > cumulative) continue;
    if (i >= bounds.size()) {
      // Rank falls in the +Inf overflow bucket: no finite upper edge to
      // interpolate toward, so clamp to the last finite bound (or 0 when
      // the histogram has no finite buckets at all).
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double within = static_cast<double>(rank - prev) /
                          static_cast<double>(buckets[i]);
    return lower + (upper - lower) * within;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double FractionUnderThreshold(const std::vector<double>& bounds,
                              const std::vector<std::uint64_t>& buckets,
                              std::uint64_t count, double threshold) {
  if (count == 0 || buckets.empty()) return -1.0;
  double under = 0.0;
  for (std::size_t i = 0; i < buckets.size() && i < bounds.size() + 1; ++i) {
    if (buckets[i] == 0) continue;
    if (i >= bounds.size()) break;  // +Inf bucket: always over.
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    if (upper <= threshold) {
      under += static_cast<double>(buckets[i]);
    } else if (lower < threshold) {
      // Bucket straddles the threshold: assume uniform spread inside it.
      const double fraction = (threshold - lower) / (upper - lower);
      under += static_cast<double>(buckets[i]) * fraction;
    }
  }
  return under / static_cast<double>(count);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, LatencyBucketBounds());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry::RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    RegistrySnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.buckets.resize(histogram->num_buckets());
    for (std::size_t i = 0; i < data.buckets.size(); ++i) {
      data.buckets[i] = histogram->BucketCount(i);
    }
    data.count = histogram->Count();
    data.sum = histogram->Sum();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

std::string MetricsRegistry::RenderPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string prom = PrometheusMetricName(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FormatNumber(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram->num_buckets(); ++i) {
      cumulative += histogram->BucketCount(i);
      const std::string le = i < histogram->bounds().size()
                                 ? FormatNumber(histogram->bounds()[i])
                                 : "+Inf";
      out += prom + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + FormatNumber(histogram->Sum()) + "\n";
    out += prom + "_count " + std::to_string(histogram->Count()) + "\n";
    // Interpolated quantile estimates as companion gauges: native-histogram
    // quantiles need a server-side query engine, so pre-compute the three
    // dashboards actually watch.
    for (const double q : {0.50, 0.95, 0.99}) {
      const std::string qprom =
          prom + "_p" + std::to_string(static_cast<int>(q * 100));
      out += "# TYPE " + qprom + " gauge\n";
      out += qprom + " " + FormatNumber(histogram->Quantile(q)) + "\n";
    }
  }
  return out;
}

void MetricsRegistry::WriteJson(JsonWriter* json) const {
  std::lock_guard<std::mutex> lock(mu_);
  json->BeginObject();
  json->Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json->Key(name).Int(static_cast<long long>(counter->Value()));
  }
  json->EndObject();
  json->Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json->Key(name).Number(gauge->Value());
  }
  json->EndObject();
  json->Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json->Key(name).BeginObject();
    json->Key("count").Int(static_cast<long long>(histogram->Count()));
    json->Key("sum").Number(histogram->Sum());
    json->Key("p50").Number(histogram->Quantile(0.50));
    json->Key("p95").Number(histogram->Quantile(0.95));
    json->Key("p99").Number(histogram->Quantile(0.99));
    json->Key("buckets").BeginArray();
    for (std::size_t i = 0; i < histogram->num_buckets(); ++i) {
      json->BeginObject();
      if (i < histogram->bounds().size()) {
        json->Key("le").Number(histogram->bounds()[i]);
      } else {
        json->Key("le").String("+Inf");
      }
      json->Key("count").Int(static_cast<long long>(histogram->BucketCount(i)));
      json->EndObject();
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndObject();
  json->EndObject();
}

std::string MetricsRegistry::RenderJson() const {
  JsonWriter json;
  WriteJson(&json);
  return json.str();
}

MetricsRegistry& DefaultMetrics() {
  static MetricsRegistry* const kRegistry = new MetricsRegistry();
  return *kRegistry;
}

}  // namespace doppler::obs
