#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/resilient.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "jube/jube.hpp"
#include "telemetry/manifest.hpp"
#include "util/error.hpp"
#include "yaml/yaml.hpp"

namespace caraml::fault {
namespace {

// --- FaultPlan generation ---------------------------------------------------------

TEST(FaultPlan, GenerateIsDeterministic) {
  const FaultPlan a = FaultPlan::generate(42, 3.0, 60.0, 4);
  const FaultPlan b = FaultPlan::generate(42, 3.0, 60.0, 4);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_DOUBLE_EQ(a.events[i].duration_s, b.events[i].duration_s);
    EXPECT_EQ(a.events[i].device, b.events[i].device);
    EXPECT_DOUBLE_EQ(a.events[i].severity, b.events[i].severity);
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const FaultPlan a = FaultPlan::generate(1, 5.0, 120.0, 4);
  const FaultPlan b = FaultPlan::generate(2, 5.0, 120.0, 4);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// Manifests, sweep caches and checkpoints on disk carry these fingerprints,
// so their values are pinned, not only their equality.
TEST(FaultPlan, FingerprintIsPinned) {
  EXPECT_EQ(FaultPlan::generate(42, 3.0, 60.0, 4).fingerprint(), "6776a78b0726274e");
}

TEST(FaultPlan, RateScalesEventCountAndZeroMeansEmpty) {
  EXPECT_TRUE(FaultPlan::generate(7, 0.0, 60.0, 4).empty());
  // A nonzero rate injects at least one fault even over a short horizon.
  EXPECT_GE(FaultPlan::generate(7, 0.01, 5.0, 4).events.size(), 1u);
  EXPECT_EQ(FaultPlan::generate(7, 3.0, 60.0, 4).events.size(), 3u);
  EXPECT_EQ(FaultPlan::generate(7, 3.0, 120.0, 4).events.size(), 6u);
}

TEST(FaultPlan, GeneratedEventsSortedAndInsideHorizon) {
  const FaultPlan plan = FaultPlan::generate(11, 10.0, 60.0, 8);
  double last = 0.0;
  for (const auto& event : plan.events) {
    EXPECT_GE(event.time_s, last);
    EXPECT_GE(event.time_s, 0.0);
    EXPECT_LE(event.time_s, plan.horizon_s);
    EXPECT_GE(event.device, 0);
    EXPECT_LT(event.device, 8);
    last = event.time_s;
  }
}

TEST(FaultPlan, GenerateRejectsBadArguments) {
  EXPECT_THROW(FaultPlan::generate(0, -1.0, 60.0, 4), Error);
  EXPECT_THROW(FaultPlan::generate(0, 1.0, 0.0, 4), Error);
  EXPECT_THROW(FaultPlan::generate(0, 1.0, 60.0, 0), Error);
}

// --- FaultPlan YAML ---------------------------------------------------------------

constexpr const char* kPlanYaml = R"(
fault_plan:
  seed: 9
  horizon_s: 100
  events:
    - {kind: device_failure, time_s: 12.5, device: 0}
    - {kind: thermal_throttle, time_s: 3, duration_s: 10, severity: 0.5}
    - {kind: link_degrade, time_s: 40, duration_s: 20, device: 1, severity: 0.25}
    - {kind: sensor_dropout, time_s: 60, duration_s: 30, device: 2}
)";

TEST(FaultPlan, FromYamlParsesEvents) {
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(kPlanYaml));
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.horizon_s, 100.0);
  ASSERT_EQ(plan.events.size(), 4u);
  // Events are sorted by time.
  EXPECT_EQ(plan.events[0].kind, FaultKind::kThermalThrottle);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDeviceFailure);
  EXPECT_EQ(plan.events[1].device, 0);
  EXPECT_EQ(plan.count(FaultKind::kLinkDegrade), 1u);
  EXPECT_EQ(plan.count(FaultKind::kSensorDropout), 1u);
}

TEST(FaultPlan, FromYamlUnknownKindThrows) {
  EXPECT_THROW(
      FaultPlan::from_yaml(yaml::parse(
          "events:\n  - {kind: gremlins, time_s: 1}\n")),
      InvalidArgument);
}

TEST(FaultPlan, FromYamlBadSeverityThrows) {
  EXPECT_THROW(
      FaultPlan::from_yaml(yaml::parse(
          "events:\n  - {kind: thermal_throttle, time_s: 1, severity: 1.5}\n")),
      Error);
}

TEST(FaultPlan, FromYamlHorizonDefaultsToLastEventEnd) {
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(
      "events:\n  - {kind: link_degrade, time_s: 10, duration_s: 5}\n"));
  EXPECT_DOUBLE_EQ(plan.horizon_s, 15.0);
}

// --- schedule queries -------------------------------------------------------------

TEST(FaultPlan, FailureTimesFiltersKindAndHorizon) {
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(kPlanYaml));
  const auto times = plan.failure_times();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 12.5);
}

TEST(FaultPlan, SensorOutagesRespectDeviceFilter) {
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(kPlanYaml));
  EXPECT_EQ(plan.sensor_outages(2).size(), 1u);
  EXPECT_TRUE(plan.sensor_outages(0).empty());
  // device -1 events hit every sensor.
  const FaultPlan broadcast = FaultPlan::from_yaml(yaml::parse(
      "events:\n  - {kind: sensor_dropout, time_s: 0, duration_s: 5}\n"));
  EXPECT_EQ(broadcast.sensor_outages(0).size(), 1u);
  EXPECT_EQ(broadcast.sensor_outages(3).size(), 1u);
}

TEST(FaultPlan, DerateAtCompoundsActiveThrottles) {
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(kPlanYaml));
  // Inside the throttle window (severity 0.5): times double, power halves.
  const Derate inside = plan.derate_at(-1, 5.0);
  EXPECT_DOUBLE_EQ(inside.time_factor, 2.0);
  EXPECT_DOUBLE_EQ(inside.power_factor, 0.5);
  // Outside any window: nominal.
  const Derate outside = plan.derate_at(-1, 50.0);
  EXPECT_DOUBLE_EQ(outside.time_factor, 1.0);
  EXPECT_DOUBLE_EQ(outside.power_factor, 1.0);
}

TEST(FaultPlan, AverageDerateIsTimeWeighted) {
  // Throttle (severity 0.5) covers 10 of 100 seconds: 0.9 + 0.1/0.5 = 1.1.
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(kPlanYaml));
  const Derate avg = plan.average_derate(-1, 0.0, 100.0);
  EXPECT_NEAR(avg.time_factor, 1.1, 1e-12);
  EXPECT_NEAR(avg.power_factor, 0.9 + 0.1 * 0.5, 1e-12);
}

TEST(FaultPlan, AverageLinkDerateFiltersDevice) {
  const FaultPlan plan = FaultPlan::from_yaml(yaml::parse(kPlanYaml));
  // Link degrade on device 1 only (severity 0.25 over 20 of 100 s).
  EXPECT_NEAR(plan.average_link_derate(1, 0.0, 100.0), 0.8 + 0.2 / 0.25,
              1e-12);
  EXPECT_DOUBLE_EQ(plan.average_link_derate(0, 0.0, 100.0), 1.0);
  // device -1 sees every device's windows.
  EXPECT_GT(plan.average_link_derate(-1, 0.0, 100.0), 1.0);
}

// --- RetryPolicy ------------------------------------------------------------------

TEST(RetryPolicy, FirstAttemptHasNoDelay) {
  RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.delay_s(1), 0.0);
}

TEST(RetryPolicy, DelayGrowsExponentiallyWithinJitterBand) {
  RetryPolicy policy;
  policy.base_delay_s = 1.0;
  policy.multiplier = 2.0;
  policy.jitter_frac = 0.1;
  policy.seed = 3;
  for (int attempt = 2; attempt <= 5; ++attempt) {
    const double nominal = std::pow(2.0, attempt - 2);
    const double delay = policy.delay_s(attempt);
    EXPECT_GE(delay, nominal * 0.9);
    EXPECT_LE(delay, nominal * 1.1);
    // Deterministic in (seed, attempt).
    EXPECT_DOUBLE_EQ(delay, policy.delay_s(attempt));
  }
}

TEST(RetryPolicy, JitterIsSeedDerived) {
  RetryPolicy a;
  a.jitter_frac = 0.5;
  RetryPolicy b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(a.delay_s(2), b.delay_s(2));
}

TEST(RetryPolicy, ValidateRejectsUnusablePolicies) {
  RetryPolicy policy;
  EXPECT_NO_THROW(policy.validate());

  RetryPolicy bad = policy;
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = policy;
  bad.base_delay_s = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = policy;
  bad.base_delay_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = policy;
  bad.multiplier = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = policy;
  bad.jitter_frac = 1.5;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = policy;
  bad.max_delay_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(RetryPolicy, BackoffGrowthIsCappedAgainstOverflow) {
  RetryPolicy policy;
  policy.base_delay_s = 1.0;
  policy.multiplier = 10.0;
  policy.jitter_frac = 0.0;
  policy.max_delay_s = 30.0;
  EXPECT_DOUBLE_EQ(policy.delay_s(2), 1.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(3), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(4), 30.0);  // 100 clamped to the ceiling
  // Even an attempt count whose pow() overflows to inf stays at the ceiling.
  const double huge = policy.delay_s(5000);
  EXPECT_TRUE(std::isfinite(huge));
  EXPECT_DOUBLE_EQ(huge, 30.0);
}

// --- retry_with_backoff -----------------------------------------------------------

TEST(RetryWithBackoff, SucceedsAfterTransientErrors) {
  int calls = 0;
  std::vector<double> slept;
  RetryPolicy policy;
  policy.max_attempts = 5;
  const RetryOutcome outcome = retry_with_backoff(
      "flaky", policy,
      [&]() {
        if (++calls < 3) throw Error("transient");
      },
      [&](double s) { slept.push_back(s); });
  EXPECT_TRUE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_GT(slept[1], slept[0]);  // exponential backoff
  EXPECT_NEAR(outcome.total_backoff_s, slept[0] + slept[1], 1e-12);
}

TEST(RetryWithBackoff, ExhaustedBudgetReportsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  const RetryOutcome outcome = retry_with_backoff(
      "doomed", policy,
      [&]() {
        ++calls;
        throw Error("still broken #" + std::to_string(calls));
      },
      [](double) {});
  EXPECT_FALSE(outcome.succeeded);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_NE(outcome.last_error.find("still broken #3"), std::string::npos);
}

TEST(RetryWithBackoff, SameSeedSameBackoffSchedule) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.seed = 99;
  const auto run = [&]() {
    std::vector<double> slept;
    retry_with_backoff(
        "d", policy, []() { throw Error("x"); },
        [&](double s) { slept.push_back(s); });
    return slept;
  };
  EXPECT_EQ(run(), run());
}

// --- TrainingCheckpoint -----------------------------------------------------------

TEST(TrainingCheckpoint, JsonRoundTrip) {
  TrainingCheckpoint original;
  original.step = 40;
  original.samples_consumed = 81920;
  original.optimizer_clock_s = 12.75;
  original.sampler_state = 0xDEADBEEFULL;
  const TrainingCheckpoint parsed =
      TrainingCheckpoint::from_json(original.to_json());
  EXPECT_EQ(parsed.schema_version, original.schema_version);
  EXPECT_EQ(parsed.step, original.step);
  EXPECT_EQ(parsed.samples_consumed, original.samples_consumed);
  EXPECT_DOUBLE_EQ(parsed.optimizer_clock_s, original.optimizer_clock_s);
  EXPECT_EQ(parsed.sampler_state, original.sampler_state);
}

TEST(TrainingCheckpoint, SaveAndLoadThroughDisk) {
  const std::string path =
      testing::TempDir() + "fault_ckpt_dir/checkpoint.json";
  std::remove(path.c_str());
  TrainingCheckpoint checkpoint;
  checkpoint.step = 7;
  checkpoint.samples_consumed = 1792;
  checkpoint.save(path);
  const TrainingCheckpoint loaded = TrainingCheckpoint::load(path);
  EXPECT_EQ(loaded.step, 7);
  EXPECT_EQ(loaded.samples_consumed, 1792);
}

TEST(TrainingCheckpoint, SerializationAndFingerprintArePinned) {
  TrainingCheckpoint checkpoint;
  checkpoint.step = 7;
  checkpoint.samples_consumed = 1792;
  checkpoint.optimizer_clock_s = 1.5;
  checkpoint.sampler_state = 0x0123456789abcdefULL;
  EXPECT_EQ(checkpoint.to_json(),
            "{\"schema_version\":2,\"step\":7,\"samples_consumed\":1792,"
            "\"optimizer_clock_s\":1.5,\"sampler_state\":\"0123456789abcdef\","
            "\"fingerprint\":\"0cab5f1edf2916ef\"}");
}

TEST(TrainingCheckpoint, MissingFileThrowsCorruptThrowsParseError) {
  EXPECT_THROW(TrainingCheckpoint::load("/nonexistent/ckpt.json"), Error);
  EXPECT_THROW(TrainingCheckpoint::from_json("not json at all"), ParseError);
}

TEST(TrainingCheckpoint, FullSamplerStateSurvivesRoundTrip) {
  // A splitmix64-derived state uses all 64 bits; a JSON double would lose
  // everything above 2^53.
  TrainingCheckpoint original;
  original.step = 8;
  original.sampler_state = 0xFFFFFFFFFFFFFFFFULL - 1;
  const TrainingCheckpoint parsed =
      TrainingCheckpoint::from_json(original.to_json());
  EXPECT_EQ(parsed.sampler_state, original.sampler_state);
}

// Corruption matrix: every damaged variant must be rejected with a located
// [fault/checkpoint-corrupt] ParseError — never crash, never parse silently.
class CheckpointCorruption : public ::testing::Test {
 protected:
  std::string path_;
  std::string bytes_;

  void SetUp() override {
    path_ = testing::TempDir() + "corrupt_ckpt/checkpoint.json";
    std::remove(path_.c_str());
    TrainingCheckpoint checkpoint;
    checkpoint.step = 16;
    checkpoint.samples_consumed = 4096;
    checkpoint.optimizer_clock_s = 3.5;
    checkpoint.sampler_state = 0xABCDEF0123456789ULL;
    checkpoint.save(path_);
    std::ifstream in(path_);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes_ = buffer.str();
  }

  void write(const std::string& text) {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }

  void expect_rejected() {
    try {
      TrainingCheckpoint::load(path_);
      FAIL() << "corrupted checkpoint parsed silently";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path_ + ":1:1: error:"), std::string::npos) << what;
      EXPECT_NE(what.find("[fault/checkpoint-corrupt]"), std::string::npos)
          << what;
    }
  }
};

TEST_F(CheckpointCorruption, BitFlipInPayloadBreaksFingerprint) {
  // Flip one digit inside the samples_consumed value.
  const auto pos = bytes_.find("4096");
  ASSERT_NE(pos, std::string::npos);
  bytes_[pos] = '5';
  write(bytes_);
  expect_rejected();
}

TEST_F(CheckpointCorruption, TruncatedFileIsNotValidJson) {
  write(bytes_.substr(0, bytes_.size() / 2));
  expect_rejected();
}

TEST_F(CheckpointCorruption, EmptyFileIsRejected) {
  write("");
  expect_rejected();
}

TEST_F(CheckpointCorruption, ValidJsonWrongSchemaIsRejected) {
  write("{\"schema_version\":99,\"step\":16}\n");
  expect_rejected();
}

TEST_F(CheckpointCorruption, MissingFieldIsSchemaViolation) {
  write("{\"schema_version\":2,\"step\":16}\n");
  expect_rejected();
}

TEST(TrainingCheckpoint, StaleTmpFileIsCleanedUpOnLoad) {
  const std::string path = testing::TempDir() + "stale_tmp/checkpoint.json";
  std::remove(path.c_str());
  TrainingCheckpoint checkpoint;
  checkpoint.step = 4;
  checkpoint.save(path);
  {
    // Simulate a crash between write and rename: a tmp file nobody promotes.
    std::ofstream tmp(path + ".tmp");
    tmp << "{\"partial";
  }
  const TrainingCheckpoint loaded = TrainingCheckpoint::load(path);
  EXPECT_EQ(loaded.step, 4);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

}  // namespace
}  // namespace caraml::fault

// ===========================================================================
// Resilient runners
// ===========================================================================

namespace caraml::core {
namespace {

fault::FaultPlan plan_from_yaml(const std::string& text) {
  return fault::FaultPlan::from_yaml(yaml::parse(text));
}

LlmRunConfig small_llm_config() {
  LlmRunConfig config;
  config.system_tag = "A100";
  config.global_batch = 256;
  config.micro_batch = 4;
  return config;
}

TEST(ResilientLlm, CleanPlanRunsOkAndMatchesBase) {
  ResilienceOptions options;
  options.plan.horizon_s = 60.0;  // no events
  options.steps = 20;
  const ResilientLlmResult result =
      run_llm_resilient(small_llm_config(), options);
  EXPECT_EQ(result.report.status, "ok");
  EXPECT_EQ(result.report.restarts, 0);
  EXPECT_EQ(result.report.steps_completed, 20);
  EXPECT_TRUE(result.report.completed());
  EXPECT_GT(result.effective_tokens_per_s_total, 0.0);
  // Checkpoint cost is the only overhead, so effective throughput is close
  // to (but below) the fault-free rate.
  EXPECT_LT(result.effective_tokens_per_s_total,
            result.base.tokens_per_s_total);
  EXPECT_GT(result.effective_tokens_per_s_total,
            0.8 * result.base.tokens_per_s_total);
}

TEST(ResilientLlm, SameSeedIsByteForByteReproducible) {
  ResilienceOptions options;
  options.plan = fault::FaultPlan::generate(1234, 6.0, 60.0, 4);
  options.retry.seed = options.plan.seed;
  options.steps = 30;
  const ResilientLlmResult a = run_llm_resilient(small_llm_config(), options);
  const ResilientLlmResult b = run_llm_resilient(small_llm_config(), options);
  EXPECT_EQ(a.report.fault_fingerprint, b.report.fault_fingerprint);
  EXPECT_EQ(a.report.status, b.report.status);
  EXPECT_EQ(a.report.restarts, b.report.restarts);
  EXPECT_EQ(a.report.steps_replayed, b.report.steps_replayed);
  EXPECT_EQ(a.report.incidents, b.report.incidents);
  EXPECT_DOUBLE_EQ(a.report.lost_time_s, b.report.lost_time_s);
  EXPECT_DOUBLE_EQ(a.report.wall_time_s, b.report.wall_time_s);
  EXPECT_DOUBLE_EQ(a.effective_tokens_per_s_total,
                   b.effective_tokens_per_s_total);
  EXPECT_DOUBLE_EQ(a.effective_energy_per_gpu_wh,
                   b.effective_energy_per_gpu_wh);
}

TEST(ResilientLlm, DeviceFailureRestartsFromCheckpoint) {
  ResilienceOptions options;
  options.plan = plan_from_yaml(
      "seed: 5\nhorizon_s: 10\nevents:\n"
      "  - {kind: device_failure, time_s: 0.001, device: 0}\n");
  options.retry.max_attempts = 3;
  options.steps = 10;
  options.checkpoint_every = 5;
  const ResilientLlmResult result =
      run_llm_resilient(small_llm_config(), options);
  EXPECT_EQ(result.report.status, "degraded");
  EXPECT_EQ(result.report.restarts, 1);
  EXPECT_EQ(result.report.steps_completed, 10);  // recovered, finished
  EXPECT_GT(result.report.lost_time_s, 0.0);
  ASSERT_FALSE(result.report.incidents.empty());
  EXPECT_NE(result.report.incidents[0].find("device failure"),
            std::string::npos);
}

TEST(ResilientLlm, ExhaustedRestartBudgetFailsWithPartialAccounting) {
  ResilienceOptions options;
  options.plan = plan_from_yaml(
      "horizon_s: 10\nevents:\n"
      "  - {kind: device_failure, time_s: 0.001}\n");
  options.retry.max_attempts = 1;  // zero restarts allowed
  options.steps = 10;
  const ResilientLlmResult result =
      run_llm_resilient(small_llm_config(), options);
  EXPECT_EQ(result.report.status, "failed");
  EXPECT_EQ(result.report.restarts, 0);
  EXPECT_LT(result.report.steps_completed, result.report.steps_total);
  EXPECT_FALSE(result.report.completed());
}

TEST(ResilientLlm, ThrottleWindowSlowsRunAndMarksDegraded) {
  ResilienceOptions clean;
  clean.plan.horizon_s = 60.0;
  clean.steps = 10;
  ResilienceOptions throttled = clean;
  throttled.plan = plan_from_yaml(
      "horizon_s: 60\nevents:\n"
      "  - {kind: thermal_throttle, time_s: 0, duration_s: 60, "
      "severity: 0.5}\n");
  const ResilientLlmResult base =
      run_llm_resilient(small_llm_config(), clean);
  const ResilientLlmResult slow =
      run_llm_resilient(small_llm_config(), throttled);
  EXPECT_EQ(slow.report.status, "degraded");
  EXPECT_LT(slow.effective_tokens_per_s_total,
            base.effective_tokens_per_s_total);
  // Power is capped too, so the degraded run draws less than nominal.
  EXPECT_LT(slow.base.avg_power_per_gpu_w, base.base.avg_power_per_gpu_w);
}

TEST(ResilientLlm, OomHalvesMicroBatchUntilFit) {
  LlmRunConfig config = small_llm_config();
  config.global_batch = 1024;
  config.micro_batch = 32;  // OOMs; 8 fits on the A100
  ResilienceOptions options;
  options.plan.horizon_s = 60.0;
  options.steps = 5;
  const ResilientLlmResult result = run_llm_resilient(config, options);
  EXPECT_EQ(result.report.oom_retries, 2);
  EXPECT_EQ(result.final_micro_batch, 8);
  EXPECT_EQ(result.report.status, "degraded");
  EXPECT_FALSE(result.base.oom);
  EXPECT_GT(result.effective_tokens_per_s_total, 0.0);
}

TEST(ResilientLlm, OomAtMicroBatchOneFails) {
  LlmRunConfig config;
  config.system_tag = "GH200";
  config.model = models::GptConfig::gpt_13b();
  config.global_batch = 16;
  config.micro_batch = 1;  // 13B never fits without model parallelism
  ResilienceOptions options;
  options.plan.horizon_s = 60.0;
  const ResilientLlmResult result = run_llm_resilient(config, options);
  EXPECT_EQ(result.report.status, "failed");
  EXPECT_TRUE(result.base.oom);
  EXPECT_EQ(result.final_micro_batch, 1);
}

TEST(ResilientLlm, PersistsCheckpointToDisk) {
  const std::string dir = testing::TempDir() + "fault_resilient_ckpt";
  ResilienceOptions options;
  options.plan.horizon_s = 60.0;
  options.steps = 20;
  options.checkpoint_every = 10;
  options.checkpoint_dir = dir;
  const ResilientLlmResult result =
      run_llm_resilient(small_llm_config(), options);
  EXPECT_GT(result.report.checkpoints_saved, 0);
  const fault::TrainingCheckpoint checkpoint =
      fault::TrainingCheckpoint::load(dir + "/checkpoint.json");
  EXPECT_EQ(checkpoint.step, 10);  // step 20 is the final step, no checkpoint
  EXPECT_EQ(checkpoint.samples_consumed,
            10 * small_llm_config().global_batch *
                small_llm_config().model.seq_length);
}

TEST(ResilientResnet, SameSeedReproducibleAndDeviceFailureRecovers) {
  ResnetRunConfig config;
  config.system_tag = "A100";
  config.global_batch = 256;
  config.devices = 4;
  ResilienceOptions options;
  options.plan = fault::FaultPlan::generate(77, 8.0, 60.0, 4);
  options.retry.seed = options.plan.seed;
  options.steps = 25;
  const ResilientResnetResult a = run_resnet_resilient(config, options);
  const ResilientResnetResult b = run_resnet_resilient(config, options);
  EXPECT_EQ(a.report.fault_fingerprint, b.report.fault_fingerprint);
  EXPECT_EQ(a.report.restarts, b.report.restarts);
  EXPECT_DOUBLE_EQ(a.effective_images_per_s_total,
                   b.effective_images_per_s_total);
  EXPECT_DOUBLE_EQ(a.effective_energy_per_device_wh,
                   b.effective_energy_per_device_wh);
  EXPECT_GT(a.effective_images_per_s_total, 0.0);
}

}  // namespace
}  // namespace caraml::core

// ===========================================================================
// JUBE resilient run
// ===========================================================================

namespace caraml::jube {
namespace {

RunOptions no_sleep_options() {
  RunOptions options;
  options.sleeper = [](double) {};
  return options;
}

Benchmark one_step_benchmark(const std::string& action = "work") {
  Benchmark benchmark("demo");
  ParameterSet set;
  set.name = "p";
  set.parameters.push_back(Parameter{"x", {"1"}, ""});
  benchmark.add_parameter_set(set);
  benchmark.add_step(Step{"compute", {}, action, ""});
  return benchmark;
}

TEST(JubeResilient, TransientStepFailureIsRetried) {
  Benchmark benchmark = one_step_benchmark();
  benchmark.add_pattern(Pattern{"value", R"(value:\s*(\d+))"});
  ActionRegistry registry;
  int calls = 0;
  registry.register_action("work", [&](const Context&) -> std::string {
    if (++calls < 3) throw Error("spurious");
    return "value: 42";
  });
  const RunResult result = benchmark.run(registry, {}, no_sleep_options());
  ASSERT_EQ(result.workpackages.size(), 1u);
  const Workpackage& wp = result.workpackages[0];
  EXPECT_EQ(wp.status, "degraded");
  ASSERT_EQ(wp.step_outcomes.size(), 1u);
  EXPECT_EQ(wp.step_outcomes[0].status, "retried");
  EXPECT_EQ(wp.step_outcomes[0].attempts, 3);
  EXPECT_EQ(wp.analysed.at("value"), "42");
  EXPECT_EQ(wp.analysed.at("status"), "degraded");
}

TEST(JubeResilient, ExhaustedStepFailsAndDependentsSkip) {
  Benchmark benchmark("demo");
  ParameterSet set;
  set.name = "p";
  set.parameters.push_back(Parameter{"x", {"1"}, ""});
  benchmark.add_parameter_set(set);
  benchmark.add_step(Step{"broken", {}, "explode", ""});
  benchmark.add_step(Step{"downstream", {"broken"}, "never", ""});
  ActionRegistry registry;
  registry.register_action("explode", [](const Context&) -> std::string {
    throw Error("hardware on fire");
  });
  bool downstream_ran = false;
  registry.register_action("never", [&](const Context&) -> std::string {
    downstream_ran = true;
    return "";
  });
  const RunResult result = benchmark.run(registry, {}, no_sleep_options());
  const Workpackage& wp = result.workpackages[0];
  EXPECT_EQ(wp.status, "failed");
  EXPECT_FALSE(downstream_ran);
  ASSERT_EQ(wp.step_outcomes.size(), 2u);
  EXPECT_EQ(wp.step_outcomes[0].status, "failed");
  EXPECT_NE(wp.step_outcomes[0].error.find("hardware on fire"),
            std::string::npos);
  EXPECT_EQ(wp.step_outcomes[1].status, "skipped");
  EXPECT_EQ(wp.step_outcomes[1].attempts, 0);
  EXPECT_EQ(wp.analysed.at("status"), "failed");
}

TEST(JubeResilient, HarvestPartialFalseRethrows) {
  Benchmark benchmark = one_step_benchmark("explode");
  ActionRegistry registry;
  registry.register_action("explode", [](const Context&) -> std::string {
    throw Error("fatal");
  });
  RunOptions options = no_sleep_options();
  options.harvest_partial = false;
  EXPECT_THROW(benchmark.run(registry, {}, options), Error);
}

TEST(JubeResilient, StepTimeoutBoundsHangingAction) {
  Benchmark benchmark = one_step_benchmark("hang");
  ActionRegistry registry;
  registry.register_action("hang", [](const Context&) -> std::string {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    return "done";
  });
  RunOptions options = no_sleep_options();
  options.retry.max_attempts = 1;
  options.step_timeout_s = 0.02;
  const RunResult result = benchmark.run(registry, {}, options);
  const Workpackage& wp = result.workpackages[0];
  EXPECT_EQ(wp.status, "failed");
  ASSERT_EQ(wp.step_outcomes.size(), 1u);
  EXPECT_NE(wp.step_outcomes[0].error.find("timed out"), std::string::npos);
}

TEST(JubeResilient, CleanRunMatchesStrictOverload) {
  Benchmark benchmark = one_step_benchmark();
  benchmark.add_pattern(Pattern{"value", R"(value:\s*(\d+))"});
  ActionRegistry registry;
  registry.register_action(
      "work", [](const Context&) -> std::string { return "value: 7"; });
  const RunResult strict = benchmark.run(registry, {});
  const RunResult resilient = benchmark.run(registry, {}, no_sleep_options());
  ASSERT_EQ(resilient.workpackages.size(), strict.workpackages.size());
  EXPECT_EQ(resilient.workpackages[0].analysed.at("value"),
            strict.workpackages[0].analysed.at("value"));
  EXPECT_EQ(resilient.workpackages[0].status, "ok");
  EXPECT_EQ(resilient.workpackages[0].step_outcomes[0].status, "ok");
}

}  // namespace
}  // namespace caraml::jube

// ===========================================================================
// Manifest v2 fault provenance
// ===========================================================================

namespace caraml::telemetry {
namespace {

TEST(ManifestFault, V2RoundTripKeepsStatusAndFaultFields) {
  Manifest manifest;
  manifest.command = "llm";
  manifest.timestamp = "2026-08-06T00:00:00.000Z";
  manifest.system_tag = "A100";
  manifest.git_revision = "abc123";
  manifest.status = "degraded";
  manifest.fault_seed = 42;
  manifest.fault_fingerprint = "6776a78b0726274e";
  manifest.fault_events = 3;
  manifest.oom_retries = 2;
  manifest.restarts = 1;
  manifest.checkpoints = 4;
  manifest.steps_replayed = 5;
  manifest.method_errors = 6;
  manifest.methods_quarantined = 1;
  const Manifest parsed = Manifest::from_json_line(manifest.to_json_line());
  EXPECT_EQ(parsed.status, "degraded");
  EXPECT_EQ(parsed.fault_seed, 42u);
  EXPECT_EQ(parsed.fault_fingerprint, "6776a78b0726274e");
  EXPECT_EQ(parsed.fault_events, 3);
  EXPECT_EQ(parsed.oom_retries, 2);
  EXPECT_EQ(parsed.restarts, 1);
  EXPECT_EQ(parsed.checkpoints, 4);
  EXPECT_EQ(parsed.steps_replayed, 5);
  EXPECT_EQ(parsed.method_errors, 6);
  EXPECT_EQ(parsed.methods_quarantined, 1);
}

TEST(ManifestFault, V1LineStillParsesWithDefaults) {
  const std::string v1_line =
      R"({"schema_version":1,"command":"llm","timestamp":"t",)"
      R"("system_tag":"A100","git_revision":"r","rng_seed":0,"config":{},)"
      R"("sampling":{"power_samples":10,"overruns":0,"jitter_ms_mean":0.1,)"
      R"("jitter_ms_max":0.2},"results":{}})";
  const Manifest parsed = Manifest::from_json_line(v1_line);
  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.status, "ok");
  EXPECT_EQ(parsed.fault_fingerprint, "");
  EXPECT_EQ(parsed.fault_events, 0);
  EXPECT_EQ(parsed.method_errors, 0);
}

}  // namespace
}  // namespace caraml::telemetry
