// Tests for the serving-grade observability layer: flight-recorder ring
// retention invariants (anomalies and slowest-percentile records survive
// arbitrary healthy-traffic rotation), concurrent record/dump safety (run
// under TSan by tools/check.sh), windowed snapshot diffing against exact
// seeded workloads, quantile interpolation error bounds, SLO fractions,
// atomic snapshot publication, Prometheus name sanitisation, and the
// JSON-lines round trip that `doppler stats` depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "private_temp_dir.h"

namespace doppler::obs {
namespace {

FlightRecord OkRecord(const std::string& id, double total_seconds) {
  FlightRecord record;
  record.request_id = id;
  record.snapshot_epoch = 1;
  record.status = StatusCode::kOk;
  record.cause = FlightCause::kCompleted;
  record.total_seconds = total_seconds;
  return record;
}

FlightRecord AnomalyRecord(const std::string& id, FlightCause cause,
                           StatusCode code) {
  FlightRecord record;
  record.request_id = id;
  record.status = code;
  record.cause = cause;
  return record;
}

// --------------------------------------------- Flight recorder retention.

TEST(FlightRecorderTest, RecordAssignsMonotonicSequences) {
  FlightRecorder recorder;
  EXPECT_EQ(recorder.Record(OkRecord("a", 0.1)), 1u);
  EXPECT_EQ(recorder.Record(OkRecord("b", 0.1)), 2u);
  EXPECT_EQ(recorder.TotalRecorded(), 2u);
}

TEST(FlightRecorderTest, EveryAnomalySurvivesManyCapacitiesOfOkTraffic) {
  FlightRecorderOptions options;
  options.capacity = 32;
  options.anomaly_capacity = 64;
  options.slow_capacity = 4;
  FlightRecorder recorder(options);

  // Interleave anomalies with 8x the ring capacity of healthy traffic.
  std::vector<std::uint64_t> anomaly_sequences;
  for (int i = 0; i < 16; ++i) {
    anomaly_sequences.push_back(recorder.Record(AnomalyRecord(
        "anomaly" + std::to_string(i),
        i % 2 == 0 ? FlightCause::kShed : FlightCause::kExpired,
        i % 2 == 0 ? StatusCode::kResourceExhausted
                   : StatusCode::kDeadlineExceeded)));
    for (int j = 0; j < 16; ++j) {
      recorder.Record(OkRecord("ok", 1e-4));
    }
  }
  ASSERT_EQ(recorder.TotalRecorded(), 16u * 17u);

  const std::vector<FlightRecord> retained = recorder.Snapshot();
  for (const std::uint64_t sequence : anomaly_sequences) {
    const bool found =
        std::any_of(retained.begin(), retained.end(),
                    [sequence](const FlightRecord& record) {
                      return record.sequence == sequence;
                    });
    EXPECT_TRUE(found) << "anomaly seq " << sequence
                       << " rotated out by OK traffic";
  }
}

TEST(FlightRecorderTest, OkRecordWithErrorStatusCountsAsAnomaly) {
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder recorder(options);
  // kCompleted cause but a non-OK status (salvaged partial outcome) must
  // not rotate out either.
  FlightRecord odd = OkRecord("partial", 0.2);
  odd.status = StatusCode::kInternal;
  const std::uint64_t sequence = recorder.Record(std::move(odd));
  for (int i = 0; i < 64; ++i) recorder.Record(OkRecord("ok", 1e-4));
  const std::vector<FlightRecord> retained = recorder.Snapshot();
  EXPECT_TRUE(std::any_of(retained.begin(), retained.end(),
                          [sequence](const FlightRecord& record) {
                            return record.sequence == sequence;
                          }));
}

TEST(FlightRecorderTest, SlowestHealthyRequestsSurviveRotation) {
  FlightRecorderOptions options;
  options.capacity = 8;
  options.slow_capacity = 4;
  FlightRecorder recorder(options);

  // One extremely slow request early, then enough fast traffic to rotate
  // the ring many times over.
  const std::uint64_t slow_sequence = recorder.Record(OkRecord("slow", 9.5));
  for (int i = 0; i < 100; ++i) recorder.Record(OkRecord("fast", 1e-5));

  const std::vector<FlightRecord> retained = recorder.Snapshot();
  const auto it = std::find_if(retained.begin(), retained.end(),
                               [slow_sequence](const FlightRecord& record) {
                                 return record.sequence == slow_sequence;
                               });
  ASSERT_NE(it, retained.end()) << "slowest request rotated out";
  EXPECT_DOUBLE_EQ(it->total_seconds, 9.5);
}

TEST(FlightRecorderTest, SnapshotIsSequenceSortedWithoutDuplicates) {
  FlightRecorderOptions options;
  options.capacity = 16;
  options.slow_capacity = 8;
  FlightRecorder recorder(options);
  std::mt19937 rng(7);
  for (int i = 0; i < 200; ++i) {
    if (i % 11 == 0) {
      recorder.Record(AnomalyRecord("bad", FlightCause::kFailed,
                                    StatusCode::kInternal));
    } else {
      recorder.Record(
          OkRecord("ok", std::uniform_real_distribution<>(0.0, 1.0)(rng)));
    }
  }
  const std::vector<FlightRecord> retained = recorder.Snapshot();
  for (std::size_t i = 1; i < retained.size(); ++i) {
    EXPECT_LT(retained[i - 1].sequence, retained[i].sequence);
  }
}

TEST(FlightRecorderTest, CauseTotalsAreRotationIndependent) {
  FlightRecorderOptions options;
  options.capacity = 4;
  options.anomaly_capacity = 4;
  options.slow_capacity = 0;
  FlightRecorder recorder(options);
  for (int i = 0; i < 50; ++i) recorder.Record(OkRecord("ok", 1e-4));
  for (int i = 0; i < 30; ++i) {
    recorder.Record(AnomalyRecord("shed", FlightCause::kShed,
                                  StatusCode::kResourceExhausted));
  }
  for (int i = 0; i < 20; ++i) {
    recorder.Record(AnomalyRecord("exp", FlightCause::kExpired,
                                  StatusCode::kDeadlineExceeded));
  }
  const auto totals = recorder.CauseTotals();
  EXPECT_EQ(totals.at(FlightCause::kCompleted), 50u);
  EXPECT_EQ(totals.at(FlightCause::kShed), 30u);
  EXPECT_EQ(totals.at(FlightCause::kExpired), 20u);
  EXPECT_EQ(recorder.TotalRecorded(), 100u);
}

// Exercised under TSan via tools/check.sh: concurrent recorders and a
// dumper hammering Snapshot/RenderJsonLines while records stream in.
TEST(FlightRecorderTest, ConcurrentRecordAndDumpIsSafe) {
  FlightRecorderOptions options;
  options.capacity = 64;
  options.anomaly_capacity = 64;
  options.slow_capacity = 16;
  FlightRecorder recorder(options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread dumper([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<FlightRecord> snapshot = recorder.Snapshot();
      for (std::size_t i = 1; i < snapshot.size(); ++i) {
        ASSERT_LT(snapshot[i - 1].sequence, snapshot[i].sequence);
      }
      (void)recorder.RenderJsonLines();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        if (i % 7 == 0) {
          recorder.Record(AnomalyRecord("w" + std::to_string(w),
                                        FlightCause::kShed,
                                        StatusCode::kResourceExhausted));
        } else {
          recorder.Record(OkRecord("w" + std::to_string(w), i * 1e-6));
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  EXPECT_EQ(recorder.TotalRecorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(FlightRecorderTest, JsonLinesCarryCauseStatusAndStages) {
  FlightRecorder recorder;
  FlightRecord record = OkRecord("cust-1.csv", 0.25);
  record.queue_wait_seconds = 0.125;
  record.stage_timings.push_back({"pipeline.preprocess", 0.01});
  record.stage_timings.push_back({"pipeline.recommend", 0.2});
  recorder.Record(std::move(record));
  recorder.Record(AnomalyRecord("cust-2.csv", FlightCause::kExpired,
                                StatusCode::kDeadlineExceeded));
  const std::string lines = recorder.RenderJsonLines();
  EXPECT_NE(lines.find("\"request_id\":\"cust-1.csv\""), std::string::npos);
  EXPECT_NE(lines.find("\"cause\":\"completed\""), std::string::npos);
  EXPECT_NE(lines.find("\"cause\":\"expired\""), std::string::npos);
  EXPECT_NE(lines.find("\"status\":\"DEADLINE_EXCEEDED\""), std::string::npos);
  EXPECT_NE(lines.find("pipeline.recommend"), std::string::npos);
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
}

// ---------------------------------------------------- Quantile estimation.

TEST(QuantileTest, InterpolatedQuantileWithinOneBucketWidthOfExact) {
  const std::vector<double>& bounds = LatencyBucketBounds();
  Histogram histogram(bounds);
  std::mt19937 rng(13);
  std::lognormal_distribution<double> dist(-6.0, 1.5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    histogram.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact =
        samples[static_cast<std::size_t>(
                    std::ceil(q * static_cast<double>(samples.size()))) -
                1];
    const double estimate = histogram.Quantile(q);
    // The estimate must land in the same bucket as the exact quantile, so
    // the error is bounded by that bucket's width (DESIGN.md §12).
    std::size_t bucket = 0;
    while (bucket < bounds.size() && exact > bounds[bucket]) ++bucket;
    ASSERT_LT(bucket, bounds.size()) << "sample beyond the last bound";
    const double lower = bucket == 0 ? 0.0 : bounds[bucket - 1];
    const double width = bounds[bucket] - lower;
    EXPECT_NEAR(estimate, exact, width)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(QuantileTest, EmptyHistogramQuantileIsZero) {
  Histogram histogram(LatencyBucketBounds());
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);
}

TEST(QuantileTest, OverflowRanksClampToLastFiniteBound) {
  const std::vector<double> bounds = {1.0, 2.0};
  // All mass in the +Inf bucket.
  const std::vector<std::uint64_t> buckets = {0, 0, 10};
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 10, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 10, 0.99), 2.0);
}

TEST(QuantileTest, SingleBucketInterpolatesLinearly) {
  const std::vector<double> bounds = {10.0, 20.0};
  // 10 observations, all in (10, 20].
  const std::vector<std::uint64_t> buckets = {0, 10, 0};
  // rank(0.5) = 5 -> 10 + 10 * 5/10 = 15.
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 10, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 10, 1.0), 20.0);
}

TEST(QuantileTest, FractionUnderThresholdInterpolatesStraddlingBucket) {
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<std::uint64_t> buckets = {4, 4, 2};
  // Threshold 15 takes all of bucket 0, half of bucket 1, none of +Inf.
  EXPECT_DOUBLE_EQ(FractionUnderThreshold(bounds, buckets, 10, 15.0), 0.6);
  // Threshold beyond the last bound: everything finite is under.
  EXPECT_DOUBLE_EQ(FractionUnderThreshold(bounds, buckets, 10, 100.0), 0.8);
  // Empty histogram: no traffic is distinct from all-over-budget.
  EXPECT_DOUBLE_EQ(FractionUnderThreshold(bounds, {0, 0, 0}, 0, 15.0), -1.0);
}

// ------------------------------------------------------ Prometheus names.

TEST(PrometheusNameTest, DigitsDashesAndRunsSanitise) {
  EXPECT_EQ(PrometheusMetricName("serve.queue_depth"),
            "doppler_serve_queue_depth");
  EXPECT_EQ(PrometheusMetricName("latency.stage-1.p99"),
            "doppler_latency_stage_1_p99");
  EXPECT_EQ(PrometheusMetricName("window.5m"), "doppler_window_5m");
  // Runs of invalid characters collapse; trailing separators drop.
  EXPECT_EQ(PrometheusMetricName("a..b--c."), "doppler_a_b_c");
}

TEST(PrometheusNameTest, RenderIncludesSumCountAndQuantileGauges) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("serve.latency.ok");
  for (int i = 0; i < 100; ++i) histogram->Observe(0.003);
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("doppler_serve_latency_ok_sum"), std::string::npos);
  EXPECT_NE(text.find("doppler_serve_latency_ok_count 100"),
            std::string::npos);
  EXPECT_NE(text.find("doppler_serve_latency_ok_p50"), std::string::npos);
  EXPECT_NE(text.find("doppler_serve_latency_ok_p95"), std::string::npos);
  EXPECT_NE(text.find("doppler_serve_latency_ok_p99"), std::string::npos);
  // No double underscores anywhere in metric names.
  EXPECT_EQ(text.find("doppler__"), std::string::npos);
}

TEST(PrometheusNameTest, NonFiniteGaugeValuesUseExpositionSpellings) {
  MetricsRegistry registry;
  registry.GetGauge("odd.plus")->Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("odd.minus")
      ->Set(-std::numeric_limits<double>::infinity());
  const std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("doppler_odd_plus +Inf"), std::string::npos);
  EXPECT_NE(text.find("doppler_odd_minus -Inf"), std::string::npos);
}

// ------------------------------------------------- Windowed snapshotting.

TEST(SnapshotterTest, TickDiffsExactWindowedCounts) {
  MetricsRegistry registry;
  SnapshotterOptions options;
  MetricsSnapshotter snapshotter(&registry, options);

  registry.GetCounter("serve.admitted")->Increment(5);
  registry.GetHistogram("serve.latency.ok")->Observe(0.002);
  const WindowedSnapshot first = snapshotter.Tick();
  // First window: everything since construction.
  EXPECT_EQ(first.tick, 1u);
  EXPECT_EQ(first.counter_deltas.at("serve.admitted"), 5u);
  EXPECT_EQ(first.histograms.at("serve.latency.ok").count, 1u);

  // Deterministic "fault plan": a seeded mix of outcomes between ticks.
  std::mt19937 rng(42);
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng() % 4 == 0) {
      registry.GetCounter("serve.shed")->Increment();
      ++shed;
    } else {
      registry.GetCounter("serve.admitted")->Increment();
      registry.GetHistogram("serve.latency.ok")->Observe(0.001 * (i % 10));
      ++admitted;
    }
  }
  const WindowedSnapshot second = snapshotter.Tick();
  EXPECT_EQ(second.tick, 2u);
  EXPECT_EQ(second.counter_deltas.at("serve.admitted"), admitted);
  EXPECT_EQ(second.counter_deltas.at("serve.shed"), shed);
  EXPECT_EQ(second.histograms.at("serve.latency.ok").count, admitted);

  // An idle window reads zero, not the cumulative totals.
  const WindowedSnapshot third = snapshotter.Tick();
  EXPECT_EQ(third.counter_deltas.at("serve.admitted"), 0u);
  EXPECT_EQ(third.histograms.at("serve.latency.ok").count, 0u);
}

TEST(SnapshotterTest, ResetBetweenTicksClampsToZeroNotNegative) {
  MetricsRegistry registry;
  MetricsSnapshotter snapshotter(&registry, SnapshotterOptions{});
  registry.GetCounter("c.x")->Increment(10);
  snapshotter.Tick();
  registry.ResetAll();
  registry.GetCounter("c.x")->Increment(3);
  const WindowedSnapshot snapshot = snapshotter.Tick();
  EXPECT_EQ(snapshot.counter_deltas.at("c.x"), 0u);
}

TEST(SnapshotterTest, SloFractionTracksThreshold) {
  MetricsRegistry registry;
  SnapshotterOptions options;
  options.slo_seconds = 0.1;
  MetricsSnapshotter snapshotter(&registry, options);
  Histogram* histogram = registry.GetHistogram("serve.latency.ok");
  // 80 fast (1 ms), 20 slow (2.5 s): exactly 80% within a 100 ms SLO.
  for (int i = 0; i < 80; ++i) histogram->Observe(0.001);
  for (int i = 0; i < 20; ++i) histogram->Observe(2.5);
  const WindowedSnapshot snapshot = snapshotter.Tick();
  const WindowedHistogram& windowed = snapshot.histograms.at("serve.latency.ok");
  EXPECT_NEAR(windowed.slo_fraction, 0.8, 1e-9);
}

TEST(SnapshotterTest, FilesAreWrittenAtomicallyEachTick) {
  MetricsRegistry registry;
  const PrivateTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  SnapshotterOptions options;
  options.jsonl_path = dir.path() + "/snap.jsonl";
  options.prom_path = dir.path() + "/snap.prom";
  MetricsSnapshotter snapshotter(&registry, options);
  registry.GetCounter("serve.admitted")->Increment(3);
  snapshotter.Tick();
  registry.GetCounter("serve.admitted")->Increment(2);
  snapshotter.Tick();
  ASSERT_TRUE(snapshotter.LastExportStatus().ok());

  std::vector<WindowedSnapshot> history;
  ASSERT_TRUE(
      MetricsSnapshotter::ReadJsonLines(options.jsonl_path, &history).ok());
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].counter_deltas.at("serve.admitted"), 3u);
  EXPECT_EQ(history[1].counter_deltas.at("serve.admitted"), 2u);

  std::ifstream prom(options.prom_path);
  std::string text((std::istreambuf_iterator<char>(prom)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("doppler_window_serve_admitted 2"), std::string::npos);
}

TEST(SnapshotterTest, BackgroundCadenceProducesTicks) {
  MetricsRegistry registry;
  MetricsSnapshotter snapshotter(&registry, SnapshotterOptions{});
  snapshotter.Start(5);
  // Wait for at least two background ticks (bounded, not timing-exact).
  for (int i = 0; i < 200 && snapshotter.History().size() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  snapshotter.Stop();
  EXPECT_GE(snapshotter.History().size(), 2u);
  // Stop is idempotent and Start/Stop cycles are safe.
  snapshotter.Stop();
  snapshotter.Start(5);
  snapshotter.Stop();
}

TEST(SnapshotterTest, HistoryIsBounded) {
  MetricsRegistry registry;
  SnapshotterOptions options;
  options.history_limit = 4;
  MetricsSnapshotter snapshotter(&registry, options);
  for (int i = 0; i < 10; ++i) snapshotter.Tick();
  const std::vector<WindowedSnapshot> history = snapshotter.History();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history.back().tick, 10u);
}

// ------------------------------------------------------ JSONL round trip.

TEST(SnapshotJsonTest, RenderParseRoundTrip) {
  WindowedSnapshot snapshot;
  snapshot.tick = 7;
  snapshot.window_seconds = 0.25;
  snapshot.counter_deltas["serve.admitted"] = 12;
  snapshot.counter_deltas["serve.shed"] = 3;
  snapshot.gauges["serve.queue_depth"] = 5.0;
  WindowedHistogram histogram;
  histogram.count = 12;
  histogram.sum = 0.06;
  histogram.p50 = 0.004;
  histogram.p95 = 0.009;
  histogram.p99 = 0.0095;
  histogram.slo_fraction = 0.92;
  snapshot.histograms["serve.latency.ok"] = histogram;

  const std::string line = MetricsSnapshotter::RenderJsonLine(snapshot);
  WindowedSnapshot parsed;
  ASSERT_TRUE(MetricsSnapshotter::ParseJsonLine(line, &parsed).ok());
  EXPECT_EQ(parsed.tick, 7u);
  EXPECT_DOUBLE_EQ(parsed.window_seconds, 0.25);
  EXPECT_EQ(parsed.counter_deltas.at("serve.admitted"), 12u);
  EXPECT_EQ(parsed.counter_deltas.at("serve.shed"), 3u);
  EXPECT_DOUBLE_EQ(parsed.gauges.at("serve.queue_depth"), 5.0);
  const WindowedHistogram& h = parsed.histograms.at("serve.latency.ok");
  EXPECT_EQ(h.count, 12u);
  EXPECT_DOUBLE_EQ(h.sum, 0.06);
  EXPECT_DOUBLE_EQ(h.p50, 0.004);
  EXPECT_DOUBLE_EQ(h.p95, 0.009);
  EXPECT_DOUBLE_EQ(h.p99, 0.0095);
  EXPECT_DOUBLE_EQ(h.slo_fraction, 0.92);
}

TEST(SnapshotJsonTest, MalformedLinesAreRejected) {
  WindowedSnapshot snapshot;
  EXPECT_FALSE(MetricsSnapshotter::ParseJsonLine("", &snapshot).ok());
  EXPECT_FALSE(MetricsSnapshotter::ParseJsonLine("{", &snapshot).ok());
  EXPECT_FALSE(MetricsSnapshotter::ParseJsonLine("[1,2]", &snapshot).ok());
  EXPECT_FALSE(
      MetricsSnapshotter::ParseJsonLine("{\"tick\":1}trailing", &snapshot)
          .ok());
  EXPECT_TRUE(MetricsSnapshotter::ParseJsonLine("{\"tick\":1}", &snapshot)
                  .ok());
}

TEST(SnapshotJsonTest, EscapedStringsRoundTrip) {
  WindowedSnapshot snapshot;
  snapshot.tick = 1;
  snapshot.counter_deltas["weird\"name\\with\nescapes"] = 4;
  const std::string line = MetricsSnapshotter::RenderJsonLine(snapshot);
  WindowedSnapshot parsed;
  ASSERT_TRUE(MetricsSnapshotter::ParseJsonLine(line, &parsed).ok());
  EXPECT_EQ(parsed.counter_deltas.at("weird\"name\\with\nescapes"), 4u);
}

// ------------------------------------------------------------ Dashboard.

TEST(DashboardTest, RendersRedTableQuantilesAndEpochHistory) {
  std::vector<WindowedSnapshot> history;
  for (int tick = 1; tick <= 3; ++tick) {
    WindowedSnapshot snapshot;
    snapshot.tick = static_cast<std::uint64_t>(tick);
    snapshot.window_seconds = 0.05;
    snapshot.counter_deltas["serve.submitted"] = 10;
    snapshot.counter_deltas["serve.admitted"] = 8;
    snapshot.counter_deltas["serve.shed"] = 2;
    snapshot.counter_deltas["serve.completed"] = 8;
    snapshot.gauges["serve.queue_depth"] = 1.0;
    snapshot.gauges["serve.snapshot_epoch"] = tick < 3 ? 1.0 : 2.0;
    WindowedHistogram histogram;
    histogram.count = 8;
    histogram.p50 = 0.002;
    histogram.p95 = 0.008;
    histogram.p99 = 0.009;
    histogram.slo_fraction = 0.95;
    snapshot.histograms["serve.latency.ok"] = histogram;
    history.push_back(std::move(snapshot));
  }
  const std::string dashboard = RenderStatsDashboard(history);
  // RED table with lifetime totals summed across windows.
  EXPECT_NE(dashboard.find("submitted"), std::string::npos);
  EXPECT_NE(dashboard.find("30"), std::string::npos);
  // Quantiles and SLO line.
  EXPECT_NE(dashboard.find("serve.latency.ok"), std::string::npos);
  EXPECT_NE(dashboard.find("within SLO"), std::string::npos);
  // Epoch history reconstructs the swap at tick 3.
  EXPECT_NE(dashboard.find("epoch 1 since tick 1"), std::string::npos);
  EXPECT_NE(dashboard.find("epoch 2 since tick 3"), std::string::npos);
  EXPECT_NE(dashboard.find("swaps observed: 1"), std::string::npos);
}

TEST(DashboardTest, EmptyHistoryRendersPlaceholder) {
  EXPECT_NE(RenderStatsDashboard({}).find("no snapshots"), std::string::npos);
}

}  // namespace
}  // namespace doppler::obs
