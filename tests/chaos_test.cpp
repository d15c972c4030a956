// Chaos-campaign tests: fault-space enumeration determinism, campaign config
// parsing, the four recovery invariants, and report reproducibility across
// job counts and cache replays.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/scenario.hpp"
#include "fault/checkpoint.hpp"
#include "util/error.hpp"
#include "yaml/yaml.hpp"

namespace caraml::chaos {
namespace {

// --- fault-space enumeration ------------------------------------------------------

TEST(FaultSpaceEnum, GridCollapsesSeverityForPointFaults) {
  FaultSpace space = FaultSpace::defaults();
  space.severities = {0.3, 0.6};
  // device_failure: 2 times x 1 device (severity collapsed);
  // 3 window kinds: 2 times x 1 device x 2 severities.
  EXPECT_EQ(space.grid_size(), 2u + 3u * 2u * 2u);
  const auto scenarios = enumerate_grid(space, 7, 100.0);
  EXPECT_EQ(scenarios.size(), space.grid_size());
  for (const auto& scenario : scenarios) {
    if (scenario.kind == fault::FaultKind::kDeviceFailure) {
      EXPECT_DOUBLE_EQ(scenario.severity, 1.0);
      EXPECT_DOUBLE_EQ(scenario.plan.events[0].duration_s, 0.0);
    } else {
      EXPECT_GT(scenario.plan.events[0].duration_s, 0.0);
    }
    ASSERT_EQ(scenario.plan.events.size(), 1u);
  }
}

TEST(FaultSpaceEnum, GridIsDeterministicAndSeedSensitive) {
  const FaultSpace space = FaultSpace::defaults();
  const auto a = enumerate_grid(space, 42, 100.0);
  const auto b = enumerate_grid(space, 42, 100.0);
  const auto c = enumerate_grid(space, 43, 100.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].plan.fingerprint(), b[i].plan.fingerprint());
    // A different campaign seed re-derives every plan seed.
    EXPECT_NE(a[i].plan.seed, c[i].plan.seed);
  }
}

TEST(FaultSpaceEnum, RandomDrawsStayInsideTheAxes) {
  FaultSpace space = FaultSpace::defaults();
  space.times_frac = {0.1, 0.9};
  space.severities = {0.4, 0.8};
  const auto scenarios = enumerate_random(space, 5, 100.0, 20);
  ASSERT_EQ(scenarios.size(), 20u);
  const auto again = enumerate_random(space, 5, 100.0, 20);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].id, again[i].id);
    EXPECT_GE(scenarios[i].time_frac, 0.1);
    EXPECT_LE(scenarios[i].time_frac, 0.9);
    if (scenarios[i].kind != fault::FaultKind::kDeviceFailure) {
      EXPECT_GE(scenarios[i].severity, 0.4);
      EXPECT_LE(scenarios[i].severity, 0.8);
    }
  }
}

TEST(FaultSpaceEnum, RejectsDegenerateAxes) {
  FaultSpace space = FaultSpace::defaults();
  space.times_frac = {1.0};  // injection at exactly the horizon never fires
  EXPECT_THROW(enumerate_grid(space, 1, 100.0), Error);
  space = FaultSpace::defaults();
  space.kinds.clear();
  EXPECT_THROW(enumerate_grid(space, 1, 100.0), Error);
  space = FaultSpace::defaults();
  space.severities = {1.5};
  EXPECT_THROW(enumerate_grid(space, 1, 100.0), Error);
}

// --- campaign config --------------------------------------------------------------

constexpr const char* kSmallCampaignYaml = R"(campaign:
  name: unit
  seed: 11
  workload: llm
  system: A100
  mode: grid
  steps: 6
  checkpoint_every: 2
  checkpoint_cost_s: 0.25
  restart_cost_s: 2.0
  retries: 3
  deadline_s: 120.0
  tolerance: 0.25
  model: 117M
  global_batch: 64
  micro_batch: 2
  devices: 2
  space:
    kinds: [device_failure, thermal_throttle]
    times: [0.3, 0.7]
    devices: [-1]
    severities: [0.6]
    window_frac: 0.2
)";

CampaignConfig small_campaign() {
  return CampaignConfig::from_yaml(yaml::parse(kSmallCampaignYaml));
}

TEST(CampaignConfig, ParsesYamlIncludingSpaceAxes) {
  const CampaignConfig config = small_campaign();
  EXPECT_EQ(config.name, "unit");
  EXPECT_EQ(config.seed, 11u);
  EXPECT_EQ(config.steps, 6);
  EXPECT_EQ(config.model, "117M");
  ASSERT_EQ(config.space.kinds.size(), 2u);
  EXPECT_EQ(config.space.kinds[1], fault::FaultKind::kThermalThrottle);
  EXPECT_EQ(config.space.times_frac, (std::vector<double>{0.3, 0.7}));
  EXPECT_DOUBLE_EQ(config.space.window_frac, 0.2);
  // 1 point kind x 2 times + 1 window kind x 2 times x 1 severity.
  EXPECT_EQ(config.space.grid_size(), 4u);
}

TEST(CampaignConfig, RejectsBadValues) {
  CampaignConfig config = small_campaign();
  config.workload = "gpt";
  EXPECT_THROW(run_campaign(config), Error);
  config = small_campaign();
  config.tolerance = -1.0;
  EXPECT_THROW(run_campaign(config), Error);
  config = small_campaign();
  config.mode = "random";
  config.scenarios = 0;
  EXPECT_THROW(run_campaign(config), Error);
}

TEST(CampaignConfig, FingerprintIsPinned) {
  EXPECT_EQ(small_campaign().fingerprint(), "5e229097cecddb38");
}

TEST(CampaignConfig, FingerprintTracksOutcomeAffectingFields) {
  const CampaignConfig a = small_campaign();
  CampaignConfig b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.tolerance = 0.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --- invariant checks -------------------------------------------------------------

TEST(CheckCheckpoint, RejectsCorruptedFileThroughTheInvariant) {
  const std::string dir = testing::TempDir() + "chaos_ckpt_corrupt";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint.json";
  fault::TrainingCheckpoint checkpoint;
  checkpoint.step = 4;
  checkpoint.samples_consumed = 4 * 100;
  checkpoint.sampler_state = 9u ^ 4u;
  checkpoint.save(path);
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage\n";  // trailing bytes break the byte-exact contract
  }
  fault::RunReport report;
  report.status = "ok";
  report.steps_total = 6;
  report.steps_completed = 6;
  report.checkpoints_saved = 2;
  const InvariantResult result = check_checkpoint(path, report, 9, 100, 2);
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.rule, "chaos/invariant-checkpoint");
}

TEST(CheckCheckpoint, AcceptsTheCheckpointTheResilientRunnerWrites) {
  const std::string dir = testing::TempDir() + "chaos_ckpt_ok";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint.json";
  fault::TrainingCheckpoint checkpoint;
  checkpoint.step = 4;  // last boundary before step 6 with every=2
  checkpoint.samples_consumed = 4 * 100;
  checkpoint.sampler_state = 9u ^ 4u;
  checkpoint.save(path);
  fault::RunReport report;
  report.status = "ok";
  report.steps_total = 6;
  report.steps_completed = 6;
  report.checkpoints_saved = 2;
  const InvariantResult result = check_checkpoint(path, report, 9, 100, 2);
  EXPECT_TRUE(result.passed) << result.detail;
}

// --- campaign runs ----------------------------------------------------------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Campaign, SmallGridPassesEveryInvariant) {
  CampaignOptions options;
  options.jobs = 2;
  options.out_dir = fresh_dir("chaos_run_small");
  const CampaignReport report = run_campaign(small_campaign(), options);
  ASSERT_EQ(report.total(), 4);
  EXPECT_EQ(report.violated(), 0) << report.render_human();
  EXPECT_EQ(report.hung(), 0);
  for (const auto& scenario : report.scenarios) {
    ASSERT_EQ(scenario.invariants.size(), 4u);
    EXPECT_TRUE(scenario.survivable);
    if (scenario.kind == "device_failure") {
      EXPECT_EQ(scenario.restarts, 1);
      EXPECT_GT(scenario.time_to_recover_s, 0.0);
      EXPECT_GT(scenario.retry_backoff_s, 0.0);
    }
    EXPECT_GT(scenario.goodput_frac, 0.0);
    EXPECT_LE(scenario.goodput_frac, 1.0 + 1e-9);
  }
}

TEST(Campaign, ReportIsByteIdenticalAcrossJobCounts) {
  CampaignOptions serial;
  serial.jobs = 1;
  serial.out_dir = fresh_dir("chaos_run_serial");
  CampaignOptions parallel;
  parallel.jobs = 4;
  parallel.out_dir = fresh_dir("chaos_run_parallel");
  const CampaignReport a = run_campaign(small_campaign(), serial);
  const CampaignReport b = run_campaign(small_campaign(), parallel);
  EXPECT_EQ(a.render_json(), b.render_json());
}

TEST(Campaign, CacheReplayReproducesTheReport) {
  const std::string cache = fresh_dir("chaos_cache") + "/cache.jsonl";
  CampaignOptions options;
  options.jobs = 2;
  options.cache_path = cache;
  options.out_dir = fresh_dir("chaos_run_cached_a");
  const CampaignReport fresh = run_campaign(small_campaign(), options);
  EXPECT_EQ(fresh.cache_hits(), 0);
  options.out_dir = fresh_dir("chaos_run_cached_b");
  const CampaignReport replay = run_campaign(small_campaign(), options);
  EXPECT_EQ(replay.cache_hits(), replay.total());
  // Cached outcomes must render exactly like freshly-executed ones.
  EXPECT_EQ(fresh.render_json(), replay.render_json());
}

TEST(Campaign, NonSurvivableDeviceFailureFailsHonestly) {
  CampaignConfig config = small_campaign();
  config.retries = 1;  // no restart budget: one device failure is fatal
  config.space.kinds = {fault::FaultKind::kDeviceFailure};
  config.space.times_frac = {0.5};
  CampaignOptions options;
  options.jobs = 1;
  options.out_dir = fresh_dir("chaos_run_fatal");
  const CampaignReport report = run_campaign(config, options);
  ASSERT_EQ(report.total(), 1);
  const ScenarioOutcome& outcome = report.scenarios[0];
  EXPECT_FALSE(outcome.survivable);
  EXPECT_EQ(outcome.status, "failed");
  // An honest failure violates nothing: partial accounting, flushed
  // manifest, rejected-but-consistent checkpoint.
  EXPECT_EQ(outcome.violations(), 0) << report.render_human();
}

TEST(Campaign, InferenceWorkloadMatchesOracleExactly) {
  CampaignConfig config = small_campaign();
  config.workload = "inference";
  config.global_batch = 8;
  CampaignOptions options;
  options.jobs = 2;
  options.out_dir = fresh_dir("chaos_run_inference");
  const CampaignReport report = run_campaign(config, options);
  EXPECT_EQ(report.violated(), 0) << report.render_human();
  for (const auto& scenario : report.scenarios) {
    EXPECT_NEAR(scenario.goodput_frac, 1.0, 1e-9);
  }
}

TEST(Campaign, ViolationsFeedTheDiagnosticsEngine) {
  CampaignOptions options;
  options.jobs = 1;
  options.out_dir = fresh_dir("chaos_run_diag");
  const CampaignReport report = run_campaign(small_campaign(), options);
  check::DiagnosticList diags;
  report.to_diagnostics("campaign.yaml", diags);
  EXPECT_EQ(diags.items().size(), 0u);  // clean campaign, no diagnostics
}

}  // namespace
}  // namespace caraml::chaos
