#include "obs/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/file_util.h"
#include "util/json_writer.h"

namespace doppler::obs {

namespace {

/// Minimal recursive-descent JSON reader for the snapshotter's own output.
/// The repo's JsonWriter is write-only; this parser accepts the subset it
/// emits (objects, arrays, double-quoted strings with \"\\/bfnrt and
/// \uXXXX escapes, numbers via strtod, true/false/null) so `doppler stats`
/// can read the jsonl history without a third-party JSON dependency.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue* Find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : input_(input) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == input_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\t' ||
            input_[pos_] == '\n' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= input_.size()) return false;
    switch (input_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->text);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return ParseLiteral("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return ParseLiteral("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ParseLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (!Consume(*p)) return false;
    }
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = input_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= input_.size()) return false;
      const char escape = input_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out->push_back(escape);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > input_.size()) return false;
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = input_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the code point (JsonWriter only emits \u for
          // control characters, but accept the full BMP for robustness).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated string
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (!ParseValue(&out->object[key])) return false;
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      out->array.emplace_back();
      if (!ParseValue(&out->array.back())) return false;
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& input_;
  std::size_t pos_ = 0;
};

double NumberOr(const JsonValue* value, double fallback) {
  return value != nullptr && value->kind == JsonValue::Kind::kNumber
             ? value->number
             : fallback;
}

/// Seconds rendered for the dashboard: sub-second values in ms, larger in s.
std::string FormatSeconds(double seconds) {
  char buffer[32];
  if (seconds < 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.3fms", seconds * 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3fs", seconds);
  }
  return buffer;
}

std::string FormatRate(double per_second) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f/s", per_second);
  return buffer;
}

void AppendRow(std::string* out, const std::string& c0, const std::string& c1,
               const std::string& c2, const std::string& c3,
               const std::string& c4 = "") {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer), "  %-32s %10s %10s %10s %10s\n",
                c0.c_str(), c1.c_str(), c2.c_str(), c3.c_str(), c4.c_str());
  *out += buffer;
}

}  // namespace

MetricsSnapshotter::MetricsSnapshotter(MetricsRegistry* registry,
                                       SnapshotterOptions options)
    : registry_(registry),
      options_(std::move(options)),
      prev_time_(std::chrono::steady_clock::now()) {}

MetricsSnapshotter::~MetricsSnapshotter() { Stop(); }

WindowedSnapshot MetricsSnapshotter::Diff(
    const MetricsRegistry::RegistrySnapshot& prev,
    const MetricsRegistry::RegistrySnapshot& cur,
    double window_seconds) const {
  WindowedSnapshot out;
  out.window_seconds = window_seconds;
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev.counters.find(name);
    const std::uint64_t before = it == prev.counters.end() ? 0 : it->second;
    out.counter_deltas[name] = value >= before ? value - before : 0;
  }
  out.gauges = cur.gauges;
  for (const auto& [name, data] : cur.histograms) {
    const auto it = prev.histograms.find(name);
    std::vector<std::uint64_t> deltas(data.buckets.size(), 0);
    double sum_before = 0.0;
    for (std::size_t i = 0; i < data.buckets.size(); ++i) {
      std::uint64_t before = 0;
      if (it != prev.histograms.end() && i < it->second.buckets.size()) {
        before = it->second.buckets[i];
      }
      deltas[i] = data.buckets[i] >= before ? data.buckets[i] - before : 0;
    }
    if (it != prev.histograms.end()) sum_before = it->second.sum;
    WindowedHistogram windowed;
    // Count from the bucket deltas (not the counter delta) keeps the
    // quantile internally consistent with the buckets it reads.
    for (const std::uint64_t d : deltas) windowed.count += d;
    windowed.sum = data.sum >= sum_before ? data.sum - sum_before : 0.0;
    windowed.p50 = QuantileFromBuckets(data.bounds, deltas, windowed.count, 0.50);
    windowed.p95 = QuantileFromBuckets(data.bounds, deltas, windowed.count, 0.95);
    windowed.p99 = QuantileFromBuckets(data.bounds, deltas, windowed.count, 0.99);
    if (options_.slo_seconds > 0.0) {
      windowed.slo_fraction = FractionUnderThreshold(
          data.bounds, deltas, windowed.count, options_.slo_seconds);
    }
    out.histograms[name] = windowed;
  }
  return out;
}

void MetricsSnapshotter::Export() {
  // Called under mu_. Export failures are recorded, never fatal: losing a
  // stats file must not take down serving.
  if (!options_.prom_path.empty() && !history_.empty()) {
    const Status status = WriteTextFileAtomic(
        options_.prom_path, RenderPrometheusText(history_.back()));
    if (!status.ok()) {
      last_export_status_ = status;
      return;
    }
  }
  if (!options_.jsonl_path.empty()) {
    std::string lines;
    for (const WindowedSnapshot& snapshot : history_) {
      lines += RenderJsonLine(snapshot);
      lines += '\n';
    }
    const Status status = WriteTextFileAtomic(options_.jsonl_path, lines);
    if (!status.ok()) {
      last_export_status_ = status;
      return;
    }
  }
  last_export_status_ = OkStatus();
}

WindowedSnapshot MetricsSnapshotter::Tick() {
  const MetricsRegistry::RegistrySnapshot cur = registry_->Snapshot();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const double window =
      has_prev_
          ? std::chrono::duration<double>(now - prev_time_).count()
          : 0.0;
  WindowedSnapshot snapshot = Diff(prev_, cur, window);
  snapshot.tick = next_tick_++;
  prev_ = cur;
  prev_time_ = now;
  has_prev_ = true;
  history_.push_back(snapshot);
  if (history_.size() > options_.history_limit) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(history_.size() -
                                                   options_.history_limit));
  }
  Export();
  return snapshot;
}

void MetricsSnapshotter::Start(int interval_ms) {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) return;
  running_ = true;
  worker_ = std::thread([this, interval_ms] { RunLoop(interval_ms); });
}

void MetricsSnapshotter::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!running_) return;
    running_ = false;
  }
  run_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void MetricsSnapshotter::RunLoop(int interval_ms) {
  const auto interval = std::chrono::milliseconds(interval_ms > 0 ? interval_ms
                                                                  : 1000);
  std::unique_lock<std::mutex> lock(run_mu_);
  while (running_) {
    if (run_cv_.wait_for(lock, interval, [this] { return !running_; })) {
      break;
    }
    lock.unlock();
    Tick();
    lock.lock();
  }
}

std::vector<WindowedSnapshot> MetricsSnapshotter::History() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

Status MetricsSnapshotter::LastExportStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_export_status_;
}

std::string MetricsSnapshotter::RenderJsonLine(
    const WindowedSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject();
  json.Key("tick").Int(static_cast<long long>(snapshot.tick));
  json.Key("window_seconds").Number(snapshot.window_seconds);
  json.Key("counters").BeginObject();
  for (const auto& [name, delta] : snapshot.counter_deltas) {
    json.Key(name).Int(static_cast<long long>(delta));
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    json.Key(name).Number(value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, h] : snapshot.histograms) {
    json.Key(name).BeginObject();
    json.Key("count").Int(static_cast<long long>(h.count));
    json.Key("sum").Number(h.sum);
    json.Key("p50").Number(h.p50);
    json.Key("p95").Number(h.p95);
    json.Key("p99").Number(h.p99);
    json.Key("slo_fraction").Number(h.slo_fraction);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string MetricsSnapshotter::RenderPrometheusText(
    const WindowedSnapshot& snapshot) {
  std::string out;
  const auto gauge_line = [&out](const std::string& prom, double value) {
    out += "# TYPE " + prom + " gauge\n";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += prom + " " + buffer + "\n";
  };
  gauge_line("doppler_stats_tick", static_cast<double>(snapshot.tick));
  gauge_line("doppler_stats_window_seconds", snapshot.window_seconds);
  for (const auto& [name, delta] : snapshot.counter_deltas) {
    const std::string prom = PrometheusMetricName("window." + name);
    gauge_line(prom, static_cast<double>(delta));
    if (snapshot.window_seconds > 0.0) {
      gauge_line(prom + "_per_second",
                 static_cast<double>(delta) / snapshot.window_seconds);
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    gauge_line(PrometheusMetricName(name), value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string prom = PrometheusMetricName("window." + name);
    gauge_line(prom + "_count", static_cast<double>(h.count));
    gauge_line(prom + "_sum", h.sum);
    gauge_line(prom + "_p50", h.p50);
    gauge_line(prom + "_p95", h.p95);
    gauge_line(prom + "_p99", h.p99);
    if (h.slo_fraction >= 0.0) {
      gauge_line(prom + "_slo_fraction", h.slo_fraction);
    }
  }
  return out;
}

Status MetricsSnapshotter::ParseJsonLine(const std::string& line,
                                         WindowedSnapshot* snapshot) {
  JsonValue root;
  JsonParser parser(line);
  if (!parser.Parse(&root) || root.kind != JsonValue::Kind::kObject) {
    return InvalidArgumentError("malformed snapshot line");
  }
  *snapshot = WindowedSnapshot();
  snapshot->tick =
      static_cast<std::uint64_t>(NumberOr(root.Find("tick"), 0.0));
  snapshot->window_seconds = NumberOr(root.Find("window_seconds"), 0.0);
  if (const JsonValue* counters = root.Find("counters");
      counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : counters->object) {
      snapshot->counter_deltas[name] =
          static_cast<std::uint64_t>(NumberOr(&value, 0.0));
    }
  }
  if (const JsonValue* gauges = root.Find("gauges");
      gauges != nullptr && gauges->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : gauges->object) {
      snapshot->gauges[name] = NumberOr(&value, 0.0);
    }
  }
  if (const JsonValue* histograms = root.Find("histograms");
      histograms != nullptr && histograms->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : histograms->object) {
      if (value.kind != JsonValue::Kind::kObject) continue;
      WindowedHistogram h;
      h.count = static_cast<std::uint64_t>(NumberOr(value.Find("count"), 0.0));
      h.sum = NumberOr(value.Find("sum"), 0.0);
      h.p50 = NumberOr(value.Find("p50"), 0.0);
      h.p95 = NumberOr(value.Find("p95"), 0.0);
      h.p99 = NumberOr(value.Find("p99"), 0.0);
      h.slo_fraction = NumberOr(value.Find("slo_fraction"), -1.0);
      snapshot->histograms[name] = h;
    }
  }
  return OkStatus();
}

Status MetricsSnapshotter::ReadJsonLines(
    const std::string& path, std::vector<WindowedSnapshot>* snapshots) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return UnavailableError("cannot open '" + path + "' for reading");
  }
  snapshots->clear();
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    WindowedSnapshot snapshot;
    const Status status = ParseJsonLine(line, &snapshot);
    if (!status.ok()) {
      return InvalidArgumentError("'" + path + "' line " +
                                  std::to_string(line_number) + ": " +
                                  status.message());
    }
    snapshots->push_back(std::move(snapshot));
  }
  return OkStatus();
}

std::string RenderStatsDashboard(
    const std::vector<WindowedSnapshot>& history) {
  if (history.empty()) {
    return "doppler stats: no snapshots yet\n";
  }
  const WindowedSnapshot& latest = history.back();
  std::string out;
  {
    char header[160];
    std::snprintf(header, sizeof(header),
                  "doppler stats — %zu snapshot(s), tick %llu, window %.3fs\n",
                  history.size(),
                  static_cast<unsigned long long>(latest.tick),
                  latest.window_seconds);
    out += header;
  }

  // Lifetime totals = sum of windowed deltas over the retained history
  // (equals the cumulative counters when the history covers the process
  // lifetime, which serve guarantees with its startup tick).
  std::map<std::string, std::uint64_t> totals;
  for (const WindowedSnapshot& snapshot : history) {
    for (const auto& [name, delta] : snapshot.counter_deltas) {
      totals[name] += delta;
    }
  }

  out += "\nREQUESTS (latest window | lifetime)\n";
  AppendRow(&out, "outcome", "rate", "window", "total");
  static const char* const kOutcomes[] = {
      "serve.submitted", "serve.admitted",        "serve.completed",
      "serve.shed",      "serve.expired",         "serve.failed",
      "serve.ingest_failed", "serve.confidence_shed",
  };
  for (const char* name : kOutcomes) {
    const auto total_it = totals.find(name);
    if (total_it == totals.end()) continue;
    const auto delta_it = latest.counter_deltas.find(name);
    const std::uint64_t delta =
        delta_it == latest.counter_deltas.end() ? 0 : delta_it->second;
    const double rate = latest.window_seconds > 0.0
                            ? static_cast<double>(delta) /
                                  latest.window_seconds
                            : 0.0;
    // Strip the "serve." prefix for the row label.
    AppendRow(&out, std::string(name).substr(6), FormatRate(rate),
              std::to_string(delta), std::to_string(total_it->second));
  }

  if (!latest.histograms.empty()) {
    out += "\nLATENCY (latest window)\n";
    AppendRow(&out, "histogram", "count", "p50", "p95", "p99");
    for (const auto& [name, h] : latest.histograms) {
      AppendRow(&out, name, std::to_string(h.count), FormatSeconds(h.p50),
                FormatSeconds(h.p95), FormatSeconds(h.p99));
      if (h.slo_fraction >= 0.0) {
        char slo[96];
        std::snprintf(slo, sizeof(slo), "%26s %.1f%% within SLO\n", "",
                      h.slo_fraction * 100.0);
        out += slo;
      }
    }
  }

  if (!latest.gauges.empty()) {
    out += "\nGAUGES\n";
    for (const auto& [name, value] : latest.gauges) {
      if (name == "serve.snapshot_epoch") continue;  // epoch section below
      char row[128];
      std::snprintf(row, sizeof(row), "  %-32s %10.17g\n", name.c_str(),
                    value);
      out += row;
    }
  }

  // Epoch history: reconstruct catalog snapshot swaps from the
  // serve.snapshot_epoch gauge trail across retained ticks.
  bool have_epoch = false;
  double last_epoch = 0.0;
  std::string epochs;
  int swaps = -1;
  for (const WindowedSnapshot& snapshot : history) {
    const auto it = snapshot.gauges.find("serve.snapshot_epoch");
    if (it == snapshot.gauges.end()) continue;
    if (!have_epoch || it->second != last_epoch) {
      char row[96];
      std::snprintf(row, sizeof(row), "  epoch %.0f since tick %llu\n",
                    it->second,
                    static_cast<unsigned long long>(snapshot.tick));
      epochs += row;
      last_epoch = it->second;
      have_epoch = true;
      ++swaps;
    }
  }
  if (have_epoch) {
    out += "\nCATALOG EPOCHS (swaps observed: " +
           std::to_string(swaps < 0 ? 0 : swaps) + ")\n";
    out += epochs;
  }
  return out;
}

}  // namespace doppler::obs
