#include "obs/flight_recorder.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/file_util.h"
#include "util/json_writer.h"

namespace doppler::obs {

namespace {

Counter* RecordedCounter() {
  static Counter* const kCounter =
      DefaultMetrics().GetCounter("obs.flight.recorded");
  return kCounter;
}

void WriteRecordJson(const FlightRecord& record, JsonWriter* json) {
  json->BeginObject();
  json->Key("seq").Int(static_cast<long long>(record.sequence));
  json->Key("request_id").String(record.request_id);
  json->Key("epoch").Int(static_cast<long long>(record.snapshot_epoch));
  json->Key("status").String(StatusCodeToString(record.status));
  if (!record.status_message.empty()) {
    json->Key("message").String(record.status_message);
  }
  json->Key("cause").String(FlightCauseName(record.cause));
  json->Key("confidence_shed").Bool(record.confidence_shed);
  json->Key("queue_wait_seconds").Number(record.queue_wait_seconds);
  json->Key("total_seconds").Number(record.total_seconds);
  json->Key("stages").BeginArray();
  for (const FlightStageTiming& timing : record.stage_timings) {
    json->BeginObject();
    json->Key("stage").String(timing.stage);
    json->Key("seconds").Number(timing.seconds);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace

const char* FlightCauseName(FlightCause cause) {
  switch (cause) {
    case FlightCause::kCompleted:
      return "completed";
    case FlightCause::kShed:
      return "shed";
    case FlightCause::kExpired:
      return "expired";
    case FlightCause::kFailed:
      return "failed";
    case FlightCause::kIngestFailed:
      return "ingest_failed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {}

bool FlightRecorder::IsAnomaly(const FlightRecord& record) const {
  return record.cause != FlightCause::kCompleted ||
         record.status != StatusCode::kOk;
}

void FlightRecorder::OfferSlow(FlightRecord record) {
  if (options_.slow_capacity == 0) return;
  // slow_ is sorted by total_seconds ascending; the fastest retained
  // record sits at the front and is the one a faster newcomer displaces.
  const auto pos = std::lower_bound(
      slow_.begin(), slow_.end(), record,
      [](const FlightRecord& a, const FlightRecord& b) {
        return a.total_seconds < b.total_seconds;
      });
  if (slow_.size() >= options_.slow_capacity) {
    if (pos == slow_.begin()) return;  // faster than everything retained
    slow_.insert(pos, std::move(record));
    slow_.erase(slow_.begin());
  } else {
    slow_.insert(pos, std::move(record));
  }
}

std::uint64_t FlightRecorder::Record(FlightRecord record) {
  RecordedCounter()->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  record.sequence = next_sequence_++;
  const std::uint64_t sequence = record.sequence;
  cause_totals_[record.cause] += 1;
  if (IsAnomaly(record)) {
    anomalies_.push_back(std::move(record));
    if (anomalies_.size() > options_.anomaly_capacity) {
      anomalies_.pop_front();
    }
    return sequence;
  }
  normal_.push_back(std::move(record));
  if (normal_.size() > options_.capacity) {
    OfferSlow(std::move(normal_.front()));
    normal_.pop_front();
  }
  return sequence;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> out;
  out.reserve(normal_.size() + anomalies_.size() + slow_.size());
  out.insert(out.end(), normal_.begin(), normal_.end());
  out.insert(out.end(), anomalies_.begin(), anomalies_.end());
  out.insert(out.end(), slow_.begin(), slow_.end());
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.sequence < b.sequence;
            });
  return out;
}

std::map<FlightCause, std::uint64_t> FlightRecorder::CauseTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cause_totals_;
}

std::uint64_t FlightRecorder::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_ - 1;
}

std::string FlightRecorder::RenderJsonLines() const {
  const std::vector<FlightRecord> records = Snapshot();
  std::string out;
  for (const FlightRecord& record : records) {
    JsonWriter json;
    WriteRecordJson(record, &json);
    out += json.str();
    out += '\n';
  }
  return out;
}

Status FlightRecorder::DumpJsonLines(const std::string& path) const {
  return WriteTextFileAtomic(path, RenderJsonLines());
}

}  // namespace doppler::obs
