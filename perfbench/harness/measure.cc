#include "measure.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// The sample with exactly ten samples beyond it (the maximum below 21).
double TenBeyond(std::vector<double> samples, double* percentile) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n < 21) {
    *percentile = 100.0;
    return samples.back();
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return samples[n - 11];
}

}  // namespace

Summary Summarize(const std::vector<double>& samples, std::size_t window) {
  Summary summary;
  summary.n = samples.size();
  summary.window = window;
  if (samples.empty()) return summary;
  summary.p50 = Median(samples);
  if (samples.size() < 2 * window) {
    summary.tail = TenBeyond(samples, &summary.tail_percentile);
    return summary;
  }
  std::vector<double> tails;
  for (std::size_t begin = 0; begin + window <= samples.size();
       begin += window) {
    tails.push_back(TenBeyond(
        std::vector<double>(samples.begin() + begin,
                            samples.begin() + begin + window),
        &summary.tail_percentile));
  }
  summary.windows = tails.size();
  summary.tail = Median(tails);
  return summary;
}

ChildRun RunChild(const std::vector<std::string>& argv,
                  const std::string& stdout_path) {
  ChildRun run;
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);

  const double start = Now();
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    run.exit_code = 127;
    return run;
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) break;
  }
  run.seconds = Now() - start;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB
  return run;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Layers

void Layers::Add(const std::string& name, double seconds, double calls) {
  Layer& layer = time[name];
  layer.seconds += seconds;
  layer.calls += calls;
}

double Layers::CountOf(const std::string& name) const {
  const auto it = counts.find(name);
  return it == counts.end() ? 0.0 : it->second;
}

void Layers::AddSpans(const std::vector<doppler::obs::SpanRecord>& spans) {
  if (spans.empty()) return;
  std::uint32_t main_thread = spans.front().thread_id;
  std::int64_t earliest = spans.front().start_ns;
  for (const doppler::obs::SpanRecord& span : spans) {
    if (span.start_ns < earliest) {
      earliest = span.start_ns;
      main_thread = span.thread_id;
    }
  }
  for (const doppler::obs::SpanRecord& span : spans) {
    const bool top = span.depth == 0 && span.thread_id == main_thread;
    const std::string& name = span.depth == 0 && span.name == "ppm.curve_build"
                                  ? "fit.curve_build"
                                  : span.name;
    const double seconds = static_cast<double>(span.duration_ns) * 1e-9;
    Add(name, seconds);
    if (top) {
      time[name].top_level = true;
      top_level_seconds += seconds;
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<doppler::obs::SpanRecord> ReadChromeTrace(const std::string& path) {
  const std::string doc = ReadFile(path);
  std::vector<doppler::obs::SpanRecord> spans;
  const std::string name_key = "{\"name\":\"";
  for (std::size_t at = doc.find(name_key); at != std::string::npos;
       at = doc.find(name_key, at + 1)) {
    const std::size_t begin = at + name_key.size();
    const std::size_t end = doc.find('}', begin);  // closes "args"
    auto number = [&](const std::string& key) {
      const std::size_t found = doc.find("\"" + key + "\":", begin);
      if (found == std::string::npos || found > end) return 0.0;
      return std::strtod(doc.c_str() + found + key.size() + 3, nullptr);
    };
    doppler::obs::SpanRecord span;
    span.name = doc.substr(begin, doc.find('"', begin) - begin);
    span.start_ns = std::llround(number("ts") * 1e3);  // trace unit: us
    span.duration_ns = std::llround(number("dur") * 1e3);
    span.thread_id = static_cast<std::uint32_t>(number("tid"));
    span.depth = static_cast<int>(number("depth"));
    spans.push_back(std::move(span));
  }
  return spans;
}

// ---------------------------------------------------------------------------
// Result

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Result::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

void Result::Print() const {
  for (const std::string& note : notes) std::cout << note << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << JsonNumber(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
