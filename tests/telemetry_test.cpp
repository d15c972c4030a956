// Tests for caraml::telemetry: metrics registry (concurrent updates,
// histogram percentiles), span tracing (nesting, Chrome-trace JSON
// well-formedness), run manifests (round-trip), and the observability hooks
// in the simulator (queue-wait stats) and PowerScope (sampling diagnostics).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "power/clock.hpp"
#include "power/methods_sim.hpp"
#include "power/scope.hpp"
#include "sim/engine.hpp"
#include "sim/trace_export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace caraml;
using telemetry::Histogram;
using telemetry::Manifest;
using telemetry::Registry;
using telemetry::Tracer;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(TelemetryMetrics, CounterConcurrentIncrementsAreExact) {
  Registry registry;
  auto& counter = registry.counter("test/hits");
  ThreadPool pool(4);
  constexpr std::size_t kIters = 10000;
  pool.parallel_for_range(0, kIters, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) counter.add();
  });
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kIters));
  counter.add(5);
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kIters) + 5);
}

TEST(TelemetryMetrics, GaugeLastWriteWins) {
  Registry registry;
  auto& gauge = registry.gauge("test/level");
  gauge.set(1.5);
  gauge.set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -3.25);
}

TEST(TelemetryMetrics, RegistryGetOrCreateReturnsSameHandle) {
  Registry registry;
  auto& a = registry.counter("dup");
  auto& b = registry.counter("dup");
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(registry.has("dup"));
  EXPECT_FALSE(registry.has("missing"));
}

TEST(TelemetryMetrics, HistogramConcurrentObservationsKeepCountAndSum) {
  Registry registry;
  auto& hist =
      registry.histogram("test/latency", Histogram::linear_buckets(1, 1, 100));
  ThreadPool pool(4);
  constexpr std::size_t kIters = 8000;
  pool.parallel_for_range(0, kIters, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hist.observe(double(i % 100));
  });
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(kIters));
  // sum of (i % 100) over 8000 iterations = 80 * (0 + ... + 99)
  EXPECT_DOUBLE_EQ(hist.sum(), 80.0 * 4950.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 99.0);
}

TEST(TelemetryMetrics, HistogramPercentilesInterpolate) {
  Histogram hist(Histogram::linear_buckets(10, 10, 10));  // 10,20,...,100
  for (int v = 1; v <= 100; ++v) hist.observe(double(v));
  // Uniform 1..100: percentiles should land within one bucket width.
  EXPECT_NEAR(hist.percentile(50), 50.0, 10.0);
  EXPECT_NEAR(hist.percentile(90), 90.0, 10.0);
  EXPECT_GE(hist.percentile(99), hist.percentile(90));
  // Clamped to observed extremes.
  EXPECT_GE(hist.percentile(0), 1.0);
  EXPECT_LE(hist.percentile(100), 100.0);
}

TEST(TelemetryMetrics, HistogramEmptyPercentileThrows) {
  Histogram hist(Histogram::default_buckets());
  EXPECT_THROW(hist.percentile(50), Error);
}

TEST(TelemetryMetrics, HistogramRejectsBadBuckets) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

TEST(TelemetryMetrics, BucketHelpersProduceIncreasingBounds) {
  const auto lin = Histogram::linear_buckets(1.0, 2.0, 4);
  ASSERT_EQ(lin.size(), 4u);
  EXPECT_DOUBLE_EQ(lin[0], 1.0);
  EXPECT_DOUBLE_EQ(lin[3], 7.0);
  const auto exp = Histogram::exponential_buckets(1.0, 10.0, 3);
  ASSERT_EQ(exp.size(), 3u);
  EXPECT_DOUBLE_EQ(exp[2], 100.0);
}

TEST(TelemetryMetrics, DataframeSnapshotAndReset) {
  Registry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(2.5);
  registry.histogram("h").observe(0.5);
  const auto frame = registry.to_dataframe();
  EXPECT_EQ(frame.num_rows(), 3u);
  EXPECT_TRUE(frame.has_column("name"));
  EXPECT_TRUE(frame.has_column("p99"));

  auto& counter = registry.counter("c");
  registry.reset();
  EXPECT_EQ(counter.value(), 0);           // handle survives, value zeroed
  EXPECT_EQ(registry.names().size(), 3u);  // registrations survive
}

TEST(TelemetryMetrics, WriteFilesEmitsCsvAndJson) {
  Registry registry;
  registry.counter("written").add(3);
  const std::string dir = testing::TempDir() + "telemetry_metrics_out";
  registry.write_files(dir);
  std::ifstream csv(dir + "/metrics.csv");
  ASSERT_TRUE(csv.good());
  std::stringstream json_text;
  std::ifstream json_file(dir + "/metrics.json");
  ASSERT_TRUE(json_file.good());
  json_text << json_file.rdbuf();
  const auto parsed = telemetry::json::parse(json_text.str());
  EXPECT_EQ(parsed.at("written").at("value").as_int(), 3);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(TelemetryJson, RoundTripPreservesMemberOrder) {
  const std::string doc =
      R"({"zebra":1,"alpha":[true,null,"x\n"],"nested":{"k":-2.5}})";
  const auto value = telemetry::json::parse(doc);
  EXPECT_EQ(telemetry::json::dump(value), doc);
  EXPECT_EQ(value.at("zebra").as_int(), 1);
  EXPECT_TRUE(value.at("alpha").as_array()[0].as_bool());
  EXPECT_TRUE(value.at("alpha").as_array()[1].is_null());
  EXPECT_EQ(value.at("alpha").as_array()[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(value.at("nested").at("k").as_number(), -2.5);
}

TEST(TelemetryJson, MalformedInputThrowsParseError) {
  EXPECT_THROW(telemetry::json::parse("{"), ParseError);
  EXPECT_THROW(telemetry::json::parse("[1,]"), ParseError);
  EXPECT_THROW(telemetry::json::parse("{} trailing"), ParseError);
  EXPECT_THROW(telemetry::json::parse(R"({"a":1)"), ParseError);
}

TEST(TelemetryJson, MissingKeyThrowsNotFound) {
  const auto value = telemetry::json::parse(R"({"a":1})");
  EXPECT_THROW(value.at("b"), NotFound);
  EXPECT_THROW(value.at("a").as_string(), Error);  // kind mismatch
}

// ---------------------------------------------------------------------------
// Spans / tracer
// ---------------------------------------------------------------------------

TEST(TelemetrySpan, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    telemetry::Span span("noop", tracer);
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TelemetrySpan, NestedSpansShareTrackAndOrder) {
  Tracer tracer;
  tracer.set_enabled(true);
  double fake_now = 0.0;
  tracer.set_clock([&fake_now] { return fake_now; });
  {
    telemetry::Span outer("outer", tracer);
    fake_now = 1.0;
    {
      telemetry::Span inner("inner", tracer);
      fake_now = 2.0;
    }
    fake_now = 3.0;
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first; both on the calling thread's track.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].track, spans[1].track);
  EXPECT_DOUBLE_EQ(spans[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_s, 1.0);
  EXPECT_DOUBLE_EQ(spans[1].start_s, 0.0);
  EXPECT_DOUBLE_EQ(spans[1].dur_s, 3.0);
  // The outer span fully encloses the inner one.
  EXPECT_LE(spans[1].start_s, spans[0].start_s);
  EXPECT_GE(spans[1].start_s + spans[1].dur_s,
            spans[0].start_s + spans[0].dur_s);
}

TEST(TelemetrySpan, ChromeTraceIsWellFormedJsonWithAllEventKinds) {
  Tracer tracer;
  tracer.set_enabled(true);
  const auto compute = tracer.track("compute");
  const auto power = tracer.track("power");
  tracer.add_span("kernel", compute, 0.5, 1.0, "utilization", 0.8);
  tracer.add_counter("power/gpu0", "watts", power, 0.0, 120.0);
  tracer.add_counter("power/gpu0", "watts", power, 1.5, 300.0);

  const std::string doc = tracer.to_chrome_trace();
  const auto parsed = telemetry::json::parse(doc);
  const auto& events = parsed.at("traceEvents").as_array();
  int meta = 0, complete = 0, counter = 0;
  for (const auto& event : events) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "M") ++meta;
    if (ph == "X") ++complete;
    if (ph == "C") ++counter;
  }
  EXPECT_EQ(meta, 2);     // one thread_name record per track
  EXPECT_EQ(complete, 1);
  EXPECT_EQ(counter, 2);

  // The complete event carries microsecond timestamps and the utilization arg.
  for (const auto& event : events) {
    if (event.at("ph").as_string() != "X") continue;
    EXPECT_EQ(event.at("name").as_string(), "kernel");
    EXPECT_DOUBLE_EQ(event.at("ts").as_number(), 0.5e6);
    EXPECT_DOUBLE_EQ(event.at("dur").as_number(), 1.0e6);
    EXPECT_DOUBLE_EQ(event.at("args").at("utilization").as_number(), 0.8);
  }
}

TEST(TelemetrySpan, ThreadTracksGetDistinctIds) {
  Tracer tracer;
  tracer.set_enabled(true);
  std::atomic<std::uint32_t> other_track{0};
  const std::uint32_t mine = tracer.thread_track();
  std::thread worker(
      [&] { other_track.store(tracer.thread_track()); });
  worker.join();
  EXPECT_NE(mine, other_track.load());
}

TEST(TelemetrySpan, ClearDropsEventsButKeepsEnabled) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.add_span("s", tracer.track("t"), 0.0, 1.0);
  tracer.clear();
  EXPECT_EQ(tracer.num_events(), 0u);
  EXPECT_TRUE(tracer.enabled());
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

Manifest example_manifest() {
  Manifest m;
  m.command = "llm";
  m.timestamp = "2026-08-06T12:00:00.000Z";
  m.system_tag = "GH200";
  m.git_revision = "abc1234";
  m.rng_seed = 42;
  m.config = {{"batch", "512"}, {"model", "GPT-800M"}};
  m.power_samples = 50;
  m.sample_overruns = 2;
  m.sample_jitter_ms_mean = 0.125;
  m.sample_jitter_ms_max = 1.5;
  m.num_threads = 16;
  m.results = {{"tokens_per_s", 47261.5}, {"mfu", 0.291}};
  return m;
}

TEST(TelemetryManifest, JsonLineRoundTrip) {
  const Manifest original = example_manifest();
  const std::string line = original.to_json_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Manifest parsed = Manifest::from_json_line(line);
  EXPECT_EQ(parsed.schema_version, original.schema_version);
  EXPECT_EQ(parsed.command, original.command);
  EXPECT_EQ(parsed.timestamp, original.timestamp);
  EXPECT_EQ(parsed.system_tag, original.system_tag);
  EXPECT_EQ(parsed.git_revision, original.git_revision);
  EXPECT_EQ(parsed.rng_seed, original.rng_seed);
  EXPECT_EQ(parsed.config, original.config);
  EXPECT_EQ(parsed.power_samples, original.power_samples);
  EXPECT_EQ(parsed.sample_overruns, original.sample_overruns);
  EXPECT_DOUBLE_EQ(parsed.sample_jitter_ms_mean,
                   original.sample_jitter_ms_mean);
  EXPECT_DOUBLE_EQ(parsed.sample_jitter_ms_max, original.sample_jitter_ms_max);
  EXPECT_EQ(parsed.num_threads, original.num_threads);
  ASSERT_EQ(parsed.results.size(), original.results.size());
  EXPECT_DOUBLE_EQ(parsed.results.at("tokens_per_s"), 47261.5);
}

TEST(TelemetryManifest, DtypeRoundTripsWhenSet) {
  Manifest m = example_manifest();
  m.dtype = "int8";
  const std::string line = m.to_json_line();
  EXPECT_NE(line.find("\"dtype\":\"int8\""), std::string::npos) << line;
  EXPECT_EQ(Manifest::from_json_line(line).dtype, "int8");
}

TEST(TelemetryManifest, DtypeOmittedWhenEmpty) {
  // Commands without a precision axis leave dtype empty; the field must
  // stay out of the line so pre-dtype manifest consumers see no change.
  const Manifest m = example_manifest();
  const std::string line = m.to_json_line();
  EXPECT_EQ(line.find("dtype"), std::string::npos) << line;
  EXPECT_TRUE(Manifest::from_json_line(line).dtype.empty());
}

TEST(TelemetryManifest, LinesWithoutThreadCountParseWithZeroDefault) {
  Manifest m = example_manifest();
  m.num_threads = 0;
  std::string line = m.to_json_line();
  // Simulate an older line by stripping the field.
  const std::string needle = "\"num_threads\":0,";
  const auto pos = line.find(needle);
  ASSERT_NE(pos, std::string::npos) << line;
  line.erase(pos, needle.size());
  const Manifest parsed = Manifest::from_json_line(line);
  EXPECT_EQ(parsed.num_threads, 0);
}

TEST(TelemetryManifest, AppendCreatesFileAndAccumulatesLines) {
  const std::string path = testing::TempDir() +
                           "telemetry_manifest_dir/manifest.jsonl";
  std::remove(path.c_str());
  telemetry::append_manifest_line(example_manifest(), path);
  telemetry::append_manifest_line(example_manifest(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NO_THROW(Manifest::from_json_line(line));
  }
  EXPECT_EQ(lines, 2);
}

TEST(TelemetryManifest, WrongSchemaVersionRejected) {
  EXPECT_THROW(Manifest::from_json_line(R"({"schema_version":99})"), Error);
  EXPECT_THROW(Manifest::from_json_line("not json"), ParseError);
}

TEST(TelemetryManifest, TimestampLooksIso8601) {
  const std::string ts = telemetry::iso8601_utc_now();
  ASSERT_EQ(ts.size(), 24u) << ts;
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
}

// ---------------------------------------------------------------------------
// Simulator queue-wait observability
// ---------------------------------------------------------------------------

TEST(TelemetrySim, QueueWaitTracksContention) {
  sim::TaskGraph graph;
  auto* device = graph.add_resource("dev");
  // Both tasks ready at t=0; the second waits for the first to finish.
  const auto first = graph.add_task(device, 2.0, 1.0, "a");
  const auto second = graph.add_task(device, 1.0, 1.0, "b");
  graph.run();
  EXPECT_DOUBLE_EQ(graph.queue_wait(first), 0.0);
  EXPECT_DOUBLE_EQ(graph.queue_wait(second), 2.0);
  EXPECT_DOUBLE_EQ(device->queue_wait_max(), 2.0);
  EXPECT_DOUBLE_EQ(device->queue_wait_mean(), 1.0);

  const auto summary = sim::utilization_summary(graph);
  ASSERT_TRUE(summary.has_column("queue_wait_mean_s"));
  ASSERT_TRUE(summary.has_column("queue_wait_max_s"));
  EXPECT_DOUBLE_EQ(summary.column("queue_wait_max_s").as_double(0), 2.0);
}

// ---------------------------------------------------------------------------
// PowerScope sampling diagnostics
// ---------------------------------------------------------------------------

TEST(TelemetryPower, ScopeDiagnosticsCountSamplesAndJitter) {
  auto method = std::make_shared<power::SyntheticMethod>("s0", 100.0, 0.0, 1.0);
  power::PowerScope scope({method}, /*interval_ms=*/5.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  scope.stop();
  const auto diag = scope.diagnostics();
  EXPECT_EQ(diag.samples,
            static_cast<std::int64_t>(scope.num_samples()));
  EXPECT_GE(diag.samples, 4);
  EXPECT_GE(diag.jitter_ms_max, diag.jitter_ms_mean);
  EXPECT_GE(diag.jitter_ms_mean, 0.0);
  EXPECT_GE(diag.overruns, 0);
}

TEST(TelemetryPower, CounterTrackExportsScopeSamples) {
  auto method = std::make_shared<power::SyntheticMethod>("s0", 50.0, 0.0, 1.0);
  power::PowerScope scope({method}, /*interval_ms=*/5.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  scope.stop();

  Tracer tracer;
  tracer.set_enabled(true);
  power::append_counter_track(scope, tracer);
  const auto counters = tracer.counters();
  ASSERT_EQ(counters.size(), scope.num_samples());
  for (const auto& event : counters) {
    EXPECT_EQ(event.name, "power/synthetic:s0");
    EXPECT_EQ(event.series, "watts");
    EXPECT_DOUBLE_EQ(event.value, 50.0);
  }
}

}  // namespace
