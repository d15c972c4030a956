#include "chaos/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "check/layout_model.hpp"
#include "core/inference.hpp"
#include "core/resilient.hpp"
#include "fault/checkpoint.hpp"
#include "jube/sweep.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/span.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace caraml::chaos {

namespace json = telemetry::json;

namespace {

constexpr const char* kRuleConvergence = "chaos/invariant-convergence";
constexpr const char* kRuleCheckpoint = "chaos/invariant-checkpoint";
constexpr const char* kRuleManifest = "chaos/invariant-manifest";
constexpr const char* kRuleDeadline = "chaos/invariant-deadline";

std::string fmt(const char* pattern, double a, double b = 0.0,
                double c = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), pattern, a, b, c);
  return buffer;
}

void validate_config(const CampaignConfig& config) {
  if (config.workload != "llm" && config.workload != "resnet" &&
      config.workload != "inference") {
    throw InvalidArgument("campaign workload must be llm, resnet or "
                          "inference, got '" +
                          config.workload + "'");
  }
  if (config.mode != "grid" && config.mode != "random") {
    throw InvalidArgument("campaign mode must be grid or random, got '" +
                          config.mode + "'");
  }
  CARAML_CHECK_MSG(config.steps >= 1, "campaign steps must be >= 1");
  CARAML_CHECK_MSG(config.checkpoint_every >= 1,
                   "campaign checkpoint_every must be >= 1");
  CARAML_CHECK_MSG(config.retries >= 1, "campaign retries must be >= 1");
  CARAML_CHECK_MSG(std::isfinite(config.tolerance) && config.tolerance > 0.0,
                   "campaign tolerance must be finite and > 0");
  CARAML_CHECK_MSG(config.global_batch >= 1,
                   "campaign global_batch must be >= 1");
  CARAML_CHECK_MSG(config.devices >= 1, "campaign devices must be >= 1");
  if (config.workload == "llm") check::decode_gpt_model(config.model);
  if (config.mode == "random") {
    CARAML_CHECK_MSG(config.scenarios >= 1,
                     "random campaign needs scenarios >= 1");
  }
}

/// What one scenario run produced, before invariant verification.
struct RunPieces {
  fault::RunReport report;
  double iteration_s = 0.0;
  double throughput = 0.0;  // effective samples/s of the degraded run
  std::int64_t samples_per_step = 0;
  std::string checkpoint_path;  // empty: workload has no checkpoint timeline
};

/// State shared between the campaign thread and (possibly abandoned)
/// scenario workers — held by shared_ptr so a worker outliving its deadline
/// never dangles.
struct CampaignShared {
  CampaignConfig config;
  OracleBaseline oracle;
  std::string campaign_fingerprint;
  std::string out_dir;
  std::string manifest_path;
  std::mutex manifest_mutex;
  jube::SweepCache cache;
  bool verbose = false;
};

core::ResilienceOptions resilience_for(const CampaignConfig& config,
                                       const fault::FaultPlan& plan,
                                       const std::string& checkpoint_dir) {
  core::ResilienceOptions options;
  options.plan = plan;
  options.retry.max_attempts = config.retries;
  options.retry.seed = plan.seed;
  options.steps = config.steps;
  options.checkpoint_every = config.checkpoint_every;
  options.checkpoint_cost_s = config.checkpoint_cost_s;
  options.restart_cost_s = config.restart_cost_s;
  options.checkpoint_dir = checkpoint_dir;
  return options;
}

RunPieces run_llm_pieces(const CampaignConfig& config,
                         const fault::FaultPlan& plan,
                         const std::string& checkpoint_dir) {
  core::LlmRunConfig run_config;
  run_config.system_tag = config.system;
  run_config.model = check::decode_gpt_model(config.model);
  run_config.global_batch = config.global_batch;
  run_config.micro_batch = config.micro_batch;
  run_config.devices = config.devices;
  const auto result =
      core::run_llm_resilient(run_config, resilience_for(config, plan,
                                                         checkpoint_dir));
  RunPieces pieces;
  pieces.report = result.report;
  pieces.iteration_s = result.base.iteration_time_s;
  pieces.throughput = result.effective_tokens_per_s_total;
  pieces.samples_per_step =
      config.global_batch * run_config.model.seq_length;
  pieces.checkpoint_path = checkpoint_dir.empty()
                               ? std::string()
                               : checkpoint_dir + "/checkpoint.json";
  return pieces;
}

RunPieces run_resnet_pieces(const CampaignConfig& config,
                            const fault::FaultPlan& plan,
                            const std::string& checkpoint_dir) {
  core::ResnetRunConfig run_config;
  run_config.system_tag = config.system;
  run_config.global_batch = config.global_batch;
  run_config.devices = config.devices;
  const auto result = core::run_resnet_resilient(
      run_config, resilience_for(config, plan, checkpoint_dir));
  RunPieces pieces;
  pieces.report = result.report;
  pieces.iteration_s = result.base.iteration_time_s;
  pieces.throughput = result.effective_images_per_s_total;
  pieces.samples_per_step = result.final_global_batch;
  pieces.checkpoint_path = checkpoint_dir.empty()
                               ? std::string()
                               : checkpoint_dir + "/checkpoint.json";
  return pieces;
}

RunPieces run_inference_pieces(const CampaignConfig& config,
                               const fault::FaultPlan& plan) {
  core::InferenceConfig run_config;
  run_config.system_tag = config.system;
  run_config.model = check::decode_gpt_model(config.model);
  run_config.batch = config.global_batch;
  run_config.prompt_tokens = config.prompt_tokens;
  run_config.generate_tokens = config.generate_tokens;

  RunPieces pieces;
  pieces.report.fault_seed = plan.seed;
  pieces.report.fault_fingerprint = plan.fingerprint();
  pieces.report.fault_events = static_cast<std::int64_t>(plan.events.size());

  fault::RetryPolicy retry;
  retry.max_attempts = config.retries;
  retry.seed = plan.seed;
  core::InferenceResult result;
  const fault::RetryOutcome outcome = fault::retry_with_backoff(
      "chaos/inference", retry,
      [&]() { result = core::run_llm_inference(run_config); },
      [](double) {});
  pieces.report.retry_backoff_s = outcome.total_backoff_s;
  if (!outcome.succeeded) {
    pieces.report.status = "failed";
    pieces.report.incidents.push_back(outcome.last_error);
    return pieces;
  }
  if (result.oom) {
    pieces.report.status = "failed";
    pieces.report.incidents.push_back("inference OOM: " + result.oom_message);
    return pieces;
  }
  pieces.iteration_s = result.decode_time_per_token_s;
  pieces.throughput = result.tokens_per_s_total;
  pieces.report.wall_time_s = result.request_latency_s;
  return pieces;
}

RunPieces run_pieces(const CampaignConfig& config,
                     const fault::FaultPlan& plan,
                     const std::string& checkpoint_dir) {
  if (config.workload == "llm")
    return run_llm_pieces(config, plan, checkpoint_dir);
  if (config.workload == "resnet")
    return run_resnet_pieces(config, plan, checkpoint_dir);
  return run_inference_pieces(config, plan);
}

bool survivable_for(const CampaignConfig& config, const Scenario& scenario) {
  // Single-event plans: a device failure needs exactly one restart from the
  // budget (max_attempts - 1); every window fault degrades but completes.
  if (scenario.kind != fault::FaultKind::kDeviceFailure) return true;
  return config.retries >= 2;
}

/// Compounded average derate the plan explains over the whole run window —
/// the same window apply_derates folds into the run config.
double derate_bound_for(const fault::FaultPlan& plan) {
  double window = plan.horizon_s;
  for (const auto& event : plan.events) {
    window = std::max(window, event.time_s + event.duration_s);
  }
  if (window <= 0.0) return 1.0;
  return plan.average_derate(-1, 0.0, window).time_factor *
         plan.average_link_derate(-1, 0.0, window);
}

InvariantResult check_manifest_flush(CampaignShared& shared,
                                     const Scenario& scenario,
                                     const fault::RunReport& report,
                                     const RunPieces& pieces) {
  InvariantResult result;
  result.rule = kRuleManifest;
  telemetry::Manifest manifest;
  manifest.command = "chaos";
  manifest.timestamp = telemetry::iso8601_utc_now();
  manifest.system_tag = shared.config.system;
  manifest.git_revision = telemetry::git_describe();
  manifest.rng_seed = scenario.plan.seed;
  manifest.config = {{"campaign", shared.config.name},
                     {"workload", shared.config.workload},
                     {"scenario", scenario.id},
                     {"kind", fault::fault_kind_name(scenario.kind)}};
  manifest.status = report.status;
  manifest.fault_seed = report.fault_seed;
  manifest.fault_fingerprint = report.fault_fingerprint;
  manifest.fault_events = report.fault_events;
  manifest.oom_retries = report.oom_retries;
  manifest.restarts = report.restarts;
  manifest.checkpoints = report.checkpoints_saved;
  manifest.steps_replayed = report.steps_replayed;
  manifest.results = {{"time_to_recover_s", report.lost_time_s},
                     {"retry_backoff_s", report.retry_backoff_s},
                     {"effective_throughput", pieces.throughput}};
  try {
    std::lock_guard<std::mutex> lock(shared.manifest_mutex);
    telemetry::append_manifest_line(manifest, shared.manifest_path);
    // Read the file back: the line must actually have reached the disk with
    // parseable content — this is the "flushed even on failed runs" check.
    std::ifstream in(shared.manifest_path);
    std::string line;
    std::string last;
    while (std::getline(in, line)) {
      if (!line.empty()) last = line;
    }
    if (last.empty()) {
      result.detail = "manifest line not found after append: " +
                      shared.manifest_path;
      return result;
    }
    const telemetry::Manifest parsed =
        telemetry::Manifest::from_json_line(last);
    if (parsed.status != report.status) {
      result.detail = "manifest status '" + parsed.status +
                      "' != run status '" + report.status + "'";
      return result;
    }
    if (parsed.fault_fingerprint != scenario.plan.fingerprint()) {
      result.detail = "manifest fault fingerprint '" +
                      parsed.fault_fingerprint + "' != plan fingerprint '" +
                      scenario.plan.fingerprint() + "'";
      return result;
    }
    if (parsed.fault_events !=
        static_cast<std::int64_t>(scenario.plan.events.size())) {
      result.detail = "manifest fault_events mismatch";
      return result;
    }
  } catch (const std::exception& e) {
    result.detail = std::string("manifest flush/parse failed: ") + e.what();
    return result;
  }
  result.passed = true;
  result.detail = "manifest flushed with status '" + report.status +
                  "' and fault provenance";
  return result;
}

ScenarioOutcome outcome_skeleton(const Scenario& scenario,
                                 const CampaignConfig& config) {
  ScenarioOutcome outcome;
  outcome.index = scenario.index;
  outcome.id = scenario.id;
  outcome.kind = fault::fault_kind_name(scenario.kind);
  outcome.time_frac = scenario.time_frac;
  outcome.device = scenario.device;
  outcome.severity = scenario.severity;
  outcome.plan_fingerprint = scenario.plan.fingerprint();
  outcome.survivable = survivable_for(config, scenario);
  return outcome;
}

ScenarioOutcome run_one_scenario(const std::shared_ptr<CampaignShared>& shared,
                                 const Scenario& scenario) {
  TELEMETRY_SPAN("chaos/scenario");
  const CampaignConfig& config = shared->config;
  ScenarioOutcome outcome = outcome_skeleton(scenario, config);

  const bool has_checkpoints = config.workload != "inference";
  const std::string checkpoint_dir =
      has_checkpoints ? shared->out_dir + "/ckpt/" + scenario.id
                      : std::string();
  const RunPieces pieces = run_pieces(config, scenario.plan, checkpoint_dir);
  const fault::RunReport& report = pieces.report;

  outcome.status = report.status;
  outcome.restarts = report.restarts;
  outcome.oom_retries = report.oom_retries;
  outcome.steps_replayed = report.steps_replayed;
  outcome.time_to_recover_s = report.lost_time_s;
  outcome.retry_backoff_s = report.retry_backoff_s;
  outcome.checkpoint_overhead_s = report.checkpoint_overhead_s;
  outcome.goodput_frac = shared->oracle.throughput > 0.0
                             ? pieces.throughput / shared->oracle.throughput
                             : 0.0;

  if (config.workload == "inference") {
    InvariantResult convergence;
    convergence.rule = kRuleConvergence;
    const double reference = shared->oracle.throughput;
    if (report.status == "failed") {
      convergence.detail = "inference run failed: " +
                           (report.incidents.empty() ? std::string("unknown")
                                                     : report.incidents.back());
    } else if (std::abs(pieces.throughput - reference) >
               1e-9 * std::max(1.0, reference)) {
      convergence.detail =
          fmt("inference throughput %.6g != oracle %.6g (faults must not "
              "change a deterministic replay)",
              pieces.throughput, reference);
    } else {
      convergence.passed = true;
      convergence.detail = "matches oracle exactly";
    }
    outcome.invariants.push_back(convergence);
    outcome.invariants.push_back(
        {kRuleCheckpoint, true, "inference has no checkpoint timeline"});
  } else {
    outcome.invariants.push_back(check_convergence(
        report, pieces.iteration_s, pieces.throughput,
        config.checkpoint_cost_s, shared->oracle,
        derate_bound_for(scenario.plan), config.tolerance,
        outcome.survivable));
    outcome.invariants.push_back(check_checkpoint(
        pieces.checkpoint_path, report, scenario.plan.seed,
        pieces.samples_per_step, config.checkpoint_every));
  }
  outcome.invariants.push_back(
      check_manifest_flush(*shared, scenario, report, pieces));
  InvariantResult deadline;
  deadline.rule = kRuleDeadline;
  deadline.passed = true;
  deadline.detail =
      config.deadline_s > 0.0
          ? fmt("completed within the %.0fs deadline", config.deadline_s)
          : "watchdog disabled (deadline_s <= 0)";
  outcome.invariants.push_back(deadline);
  return outcome;
}

// --- scenario result cache (sweep-style) ------------------------------------------

std::string invariant_key(const std::string& rule) {
  // "chaos/invariant-convergence" -> "inv_convergence"
  const auto dash = rule.rfind('-');
  return "inv_" + rule.substr(dash + 1);
}

std::string scenario_cache_fingerprint(const CampaignShared& shared,
                                       const Scenario& scenario) {
  jube::Context context;
  context["index"] = std::to_string(scenario.index);
  context["kind"] = fault::fault_kind_name(scenario.kind);
  context["time_frac"] = json::format_number(scenario.time_frac);
  context["device"] = std::to_string(scenario.device);
  context["severity"] = json::format_number(scenario.severity);
  return jube::workpackage_fingerprint(
      "chaos:" + shared.config.name, context, {},
      shared.campaign_fingerprint + "|" + scenario.plan.fingerprint());
}

void cache_store(CampaignShared& shared, const Scenario& scenario,
                 const std::string& fingerprint,
                 const ScenarioOutcome& outcome) {
  if (!shared.cache.enabled()) return;
  jube::Workpackage wp;
  wp.context["index"] = std::to_string(scenario.index);
  wp.context["kind"] = outcome.kind;
  wp.status = outcome.status;
  auto& a = wp.analysed;
  a["status"] = outcome.status;
  a["survivable"] = outcome.survivable ? "1" : "0";
  a["restarts"] = std::to_string(outcome.restarts);
  a["oom_retries"] = std::to_string(outcome.oom_retries);
  a["steps_replayed"] = std::to_string(outcome.steps_replayed);
  a["time_to_recover_s"] = json::format_number(outcome.time_to_recover_s);
  a["retry_backoff_s"] = json::format_number(outcome.retry_backoff_s);
  a["checkpoint_overhead_s"] =
      json::format_number(outcome.checkpoint_overhead_s);
  a["goodput_frac"] = json::format_number(outcome.goodput_frac);
  for (const auto& invariant : outcome.invariants) {
    const std::string key = invariant_key(invariant.rule);
    a[key] = invariant.passed ? "pass" : "fail";
    a[key + "_detail"] = invariant.detail;
  }
  shared.cache.append(fingerprint, "chaos:" + shared.config.name, wp);
}

bool cache_restore(const jube::Workpackage& wp, const Scenario& scenario,
                   const CampaignConfig& config, ScenarioOutcome& outcome) {
  const auto& a = wp.analysed;
  const auto get = [&](const std::string& key) -> const std::string& {
    const auto it = a.find(key);
    if (it == a.end()) throw NotFound("cache entry missing " + key);
    return it->second;
  };
  try {
    outcome = outcome_skeleton(scenario, config);
    outcome.status = get("status");
    outcome.survivable = get("survivable") == "1";
    outcome.restarts = static_cast<int>(std::strtol(get("restarts").c_str(),
                                                    nullptr, 10));
    outcome.oom_retries = static_cast<int>(
        std::strtol(get("oom_retries").c_str(), nullptr, 10));
    outcome.steps_replayed =
        std::strtoll(get("steps_replayed").c_str(), nullptr, 10);
    outcome.time_to_recover_s =
        std::strtod(get("time_to_recover_s").c_str(), nullptr);
    outcome.retry_backoff_s =
        std::strtod(get("retry_backoff_s").c_str(), nullptr);
    outcome.checkpoint_overhead_s =
        std::strtod(get("checkpoint_overhead_s").c_str(), nullptr);
    outcome.goodput_frac = std::strtod(get("goodput_frac").c_str(), nullptr);
    for (const char* rule : {kRuleConvergence, kRuleCheckpoint, kRuleManifest,
                             kRuleDeadline}) {
      const std::string key = invariant_key(rule);
      outcome.invariants.push_back(
          {rule, get(key) == "pass", get(key + "_detail")});
    }
    outcome.from_cache = true;
    return true;
  } catch (const std::exception&) {
    return false;  // malformed entry: treat as a miss and re-run
  }
}

/// Shared watchdog pool for deadline-bounded scenarios. Intentionally leaked
/// (see jube's timed_attempt_pool): a genuinely hung scenario occupies its
/// worker forever; on timeout the pool grows by one worker so only hung
/// scenarios cost a thread.
ThreadPool& chaos_watchdog_pool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::default_threads());
  return *pool;
}

ScenarioOutcome run_scenario_bounded(
    const std::shared_ptr<CampaignShared>& shared, const Scenario& scenario) {
  const CampaignConfig& config = shared->config;
  const std::string fingerprint =
      scenario_cache_fingerprint(*shared, scenario);
  if (shared->cache.enabled()) {
    jube::Workpackage cached;
    ScenarioOutcome outcome;
    if (shared->cache.lookup(fingerprint, cached) &&
        cache_restore(cached, scenario, config, outcome)) {
      return outcome;
    }
  }

  ScenarioOutcome outcome;
  if (config.deadline_s <= 0.0) {
    outcome = run_one_scenario(shared, scenario);
  } else {
    // Scenario copies go in by value: a worker abandoned on timeout must
    // never touch campaign-thread locals.
    auto future = chaos_watchdog_pool().submit(
        [shared, scenario]() { return run_one_scenario(shared, scenario); });
    if (future.wait_for(std::chrono::duration<double>(config.deadline_s)) ==
        std::future_status::timeout) {
      chaos_watchdog_pool().add_worker();
      log::warn() << "chaos scenario " << scenario.id << " exceeded its "
                  << config.deadline_s
                  << "s deadline; watchdog compensated the pool";
      ScenarioOutcome hung = outcome_skeleton(scenario, config);
      hung.status = "hung";
      const std::string skipped =
          fmt("not evaluated: scenario exceeded the %.0fs deadline",
              config.deadline_s);
      hung.invariants = {
          {kRuleConvergence, false, skipped},
          {kRuleCheckpoint, false, skipped},
          {kRuleManifest, false, skipped},
          {kRuleDeadline, false,
           fmt("scenario still running after %.0fs (watchdog fired; pool "
               "worker compensated)",
               config.deadline_s)}};
      return hung;  // never cached: the verdict is wall-clock dependent
    }
    outcome = future.get();
  }
  cache_store(*shared, scenario, fingerprint, outcome);
  return outcome;
}

OracleBaseline run_oracle(const CampaignConfig& config) {
  TELEMETRY_SPAN("chaos/oracle");
  const RunPieces pieces = run_pieces(config, fault::FaultPlan{}, "");
  if (pieces.report.status != "ok") {
    throw Error(
        "campaign oracle run did not finish clean (status '" +
        pieces.report.status +
        "'): fix the workload shape before exploring the fault space");
  }
  OracleBaseline oracle;
  oracle.iteration_s = pieces.iteration_s;
  oracle.wall_time_s = pieces.report.wall_time_s;
  oracle.throughput = pieces.throughput;
  oracle.checkpoints = pieces.report.checkpoints_saved;
  return oracle;
}

}  // namespace

// --- invariant checks -------------------------------------------------------------

InvariantResult check_convergence(const fault::RunReport& report,
                                  double iteration_s, double throughput,
                                  double checkpoint_cost_s,
                                  const OracleBaseline& oracle,
                                  double derate_bound, double tolerance,
                                  bool survivable) {
  InvariantResult result;
  result.rule = kRuleConvergence;
  if (!survivable) {
    if (report.status != "failed") {
      result.detail = "expected restart-budget exhaustion but run ended '" +
                      report.status + "'";
      return result;
    }
    if (report.completed()) {
      result.detail = "failed run claims all steps completed";
      return result;
    }
    if (report.incidents.empty()) {
      result.detail = "failed run carries no incident annotations";
      return result;
    }
    result.passed = true;
    result.detail = fmt("failed honestly at step %.0f with partial accounting",
                        static_cast<double>(report.steps_completed));
    return result;
  }

  if (report.status == "failed" || !report.completed()) {
    result.detail =
        fmt("survivable fault did not converge: %.0f of %.0f steps",
            static_cast<double>(report.steps_completed),
            static_cast<double>(report.steps_total));
    return result;
  }
  // Wall-time conservation: every second is accounted for by steps,
  // checkpoints, or recovery.
  const double expected =
      static_cast<double>(report.steps_total) * iteration_s +
      static_cast<double>(report.checkpoints_saved) * checkpoint_cost_s +
      report.lost_time_s;
  if (std::abs(report.wall_time_s - expected) >
      1e-6 * std::max(1.0, report.wall_time_s)) {
    result.detail = fmt(
        "wall time %.6fs breaks conservation (steps + checkpoints + lost = "
        "%.6fs)",
        report.wall_time_s, expected);
    return result;
  }
  // The slowdown must be explained by the plan's derates plus recovery time,
  // within tolerance — anything beyond that is an unexplained regression.
  const double allowed =
      oracle.wall_time_s * derate_bound * (1.0 + tolerance) +
      report.lost_time_s;
  if (report.wall_time_s > allowed) {
    result.detail = fmt(
        "wall time %.3fs exceeds explained degradation (allowed %.3fs at "
        "derate x%.3f)",
        report.wall_time_s, allowed, derate_bound);
    return result;
  }
  if (throughput > oracle.throughput * (1.0 + 1e-9)) {
    result.detail = fmt("throughput %.6g beats the fault-free oracle %.6g",
                        throughput, oracle.throughput);
    return result;
  }
  result.passed = true;
  result.detail = fmt("converged at %.1f%% of oracle goodput (derate x%.3f "
                      "explains the gap)",
                      oracle.throughput > 0.0
                          ? 100.0 * throughput / oracle.throughput
                          : 0.0,
                      derate_bound);
  return result;
}

InvariantResult check_checkpoint(const std::string& path,
                                 const fault::RunReport& report,
                                 std::uint64_t plan_seed,
                                 std::int64_t samples_per_step,
                                 std::int64_t checkpoint_every) {
  InvariantResult result;
  result.rule = kRuleCheckpoint;
  if (report.checkpoints_saved == 0) {
    if (!path.empty() && std::filesystem::exists(path)) {
      result.detail = "checkpoint file exists but the report saved none";
      return result;
    }
    result.passed = true;
    result.detail = "no checkpoint boundary crossed";
    return result;
  }
  std::string bytes;
  {
    std::ifstream in(path);
    if (!in) {
      result.detail = "checkpoint missing after " +
                      std::to_string(report.checkpoints_saved) +
                      " recorded save(s): " + path;
      return result;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  fault::TrainingCheckpoint checkpoint;
  try {
    checkpoint = fault::TrainingCheckpoint::load(path);
  } catch (const std::exception& e) {
    result.detail = std::string("checkpoint rejected on reload: ") + e.what();
    return result;
  }
  // Byte-exact restore: re-serializing the loaded state must reproduce the
  // file, fingerprint included.
  if (checkpoint.to_json() + "\n" != bytes) {
    result.detail = "checkpoint does not re-serialize byte-exactly";
    return result;
  }
  if (checkpoint.step <= 0 || checkpoint.step % checkpoint_every != 0) {
    result.detail = fmt("checkpoint step %.0f is not a checkpoint boundary "
                        "(every %.0f)",
                        static_cast<double>(checkpoint.step),
                        static_cast<double>(checkpoint_every));
    return result;
  }
  // Training must resume from the right step: the last boundary the run
  // crossed (for a failed run, exactly where its partial accounting stops).
  const std::int64_t expected_step =
      report.status == "failed"
          ? report.steps_completed
          : checkpoint_every * ((report.steps_total - 1) / checkpoint_every);
  if (checkpoint.step != expected_step) {
    result.detail = fmt("checkpoint at step %.0f, expected %.0f",
                        static_cast<double>(checkpoint.step),
                        static_cast<double>(expected_step));
    return result;
  }
  if (checkpoint.samples_consumed != checkpoint.step * samples_per_step) {
    result.detail = fmt("sample accounting off: %.0f consumed at step %.0f",
                        static_cast<double>(checkpoint.samples_consumed),
                        static_cast<double>(checkpoint.step));
    return result;
  }
  if (checkpoint.sampler_state !=
      (plan_seed ^ static_cast<std::uint64_t>(checkpoint.step))) {
    result.detail = "sampler RNG state does not match (seed, step)";
    return result;
  }
  result.passed = true;
  result.detail = fmt("restores byte-exactly at step %.0f",
                      static_cast<double>(checkpoint.step));
  return result;
}

// --- config -----------------------------------------------------------------------

CampaignConfig CampaignConfig::from_yaml(const yaml::NodePtr& root) {
  CARAML_CHECK_MSG(root && root->is_map(), "campaign YAML must be a map");
  const yaml::NodePtr body =
      root->has("campaign") ? root->at("campaign") : root;
  CARAML_CHECK_MSG(body->is_map(), "campaign must be a map");
  CampaignConfig config;
  config.name = body->get_or("name", config.name);
  config.seed = static_cast<std::uint64_t>(body->get_int_or("seed", 0));
  config.workload = body->get_or("workload", config.workload);
  config.system = body->get_or("system", config.system);
  config.mode = body->get_or("mode", config.mode);
  config.scenarios =
      static_cast<int>(body->get_int_or("scenarios", config.scenarios));
  config.steps = body->get_int_or("steps", config.steps);
  config.checkpoint_every =
      body->get_int_or("checkpoint_every", config.checkpoint_every);
  config.checkpoint_cost_s =
      body->get_double_or("checkpoint_cost_s", config.checkpoint_cost_s);
  config.restart_cost_s =
      body->get_double_or("restart_cost_s", config.restart_cost_s);
  config.retries = static_cast<int>(body->get_int_or("retries", config.retries));
  config.deadline_s = body->get_double_or("deadline_s", config.deadline_s);
  config.tolerance = body->get_double_or("tolerance", config.tolerance);
  config.model = body->get_or("model", config.model);
  config.global_batch = body->get_int_or("global_batch", config.global_batch);
  config.micro_batch = body->get_int_or("micro_batch", config.micro_batch);
  config.devices = static_cast<int>(body->get_int_or("devices", config.devices));
  config.prompt_tokens =
      body->get_int_or("prompt_tokens", config.prompt_tokens);
  config.generate_tokens =
      body->get_int_or("generate_tokens", config.generate_tokens);
  if (const yaml::NodePtr space = body->find("space")) {
    CARAML_CHECK_MSG(space->is_map(), "campaign space must be a map");
    if (const yaml::NodePtr kinds = space->find("kinds")) {
      CARAML_CHECK_MSG(kinds->is_sequence(), "space kinds must be a list");
      config.space.kinds.clear();
      for (const auto& node : kinds->items()) {
        config.space.kinds.push_back(
            fault::fault_kind_from_name(node->as_string()));
      }
    }
    if (const yaml::NodePtr times = space->find("times")) {
      CARAML_CHECK_MSG(times->is_sequence(), "space times must be a list");
      config.space.times_frac.clear();
      for (const auto& node : times->items()) {
        config.space.times_frac.push_back(node->as_double());
      }
    }
    if (const yaml::NodePtr devices = space->find("devices")) {
      CARAML_CHECK_MSG(devices->is_sequence(),
                       "space devices must be a list");
      config.space.devices.clear();
      for (const auto& node : devices->items()) {
        config.space.devices.push_back(static_cast<int>(node->as_int()));
      }
    }
    if (const yaml::NodePtr severities = space->find("severities")) {
      CARAML_CHECK_MSG(severities->is_sequence(),
                       "space severities must be a list");
      config.space.severities.clear();
      for (const auto& node : severities->items()) {
        config.space.severities.push_back(node->as_double());
      }
    }
    config.space.window_frac =
        space->get_double_or("window_frac", config.space.window_frac);
  }
  validate_config(config);
  return config;
}

CampaignConfig CampaignConfig::from_yaml_file(const std::string& path) {
  return from_yaml(yaml::parse_file(path));
}

std::string CampaignConfig::fingerprint() const {
  std::ostringstream out;
  out << "name=" << name << ";seed=" << seed << ";workload=" << workload
      << ";system=" << system << ";mode=" << mode
      << ";scenarios=" << scenarios << ";steps=" << steps
      << ";every=" << checkpoint_every
      << ";ckpt_cost=" << json::format_number(checkpoint_cost_s)
      << ";restart_cost=" << json::format_number(restart_cost_s)
      << ";retries=" << retries
      << ";tolerance=" << json::format_number(tolerance) << ";model=" << model
      << ";batch=" << global_batch << ";micro=" << micro_batch
      << ";devices=" << devices << ";prompt=" << prompt_tokens
      << ";generate=" << generate_tokens
      << ";window=" << json::format_number(space.window_frac) << ";kinds=";
  for (const auto kind : space.kinds) out << fault::fault_kind_name(kind) << ",";
  out << ";times=";
  for (const double t : space.times_frac) out << json::format_number(t) << ",";
  out << ";devs=";
  for (const int d : space.devices) out << d << ",";
  out << ";sev=";
  for (const double s : space.severities) out << json::format_number(s) << ",";
  return str::hex16(str::fnv1a64(out.str()));
}

// --- report -----------------------------------------------------------------------

int ScenarioOutcome::violations() const {
  int count = 0;
  for (const auto& invariant : invariants) {
    if (!invariant.passed) ++count;
  }
  return count;
}

int CampaignReport::passed() const { return total() - violated(); }

int CampaignReport::violated() const {
  int count = 0;
  for (const auto& scenario : scenarios) {
    if (scenario.violations() > 0) ++count;
  }
  return count;
}

int CampaignReport::hung() const {
  int count = 0;
  for (const auto& scenario : scenarios) {
    if (scenario.status == "hung") ++count;
  }
  return count;
}

int CampaignReport::failed_runs() const {
  int count = 0;
  for (const auto& scenario : scenarios) {
    if (scenario.status == "failed") ++count;
  }
  return count;
}

int CampaignReport::cache_hits() const {
  int count = 0;
  for (const auto& scenario : scenarios) {
    if (scenario.from_cache) ++count;
  }
  return count;
}

void CampaignReport::to_diagnostics(const std::string& file,
                                    check::DiagnosticList& diags) const {
  for (const auto& scenario : scenarios) {
    for (const auto& invariant : scenario.invariants) {
      if (invariant.passed) continue;
      diags.report(invariant.rule, {file, 0, 0},
                   scenario.id + ": " + invariant.detail);
    }
  }
}

std::string CampaignReport::render_human() const {
  std::ostringstream out;
  out << "chaos campaign '" << config.name << "': " << config.workload
      << " on " << config.system << ", " << config.mode << " over "
      << total() << " scenarios (seed " << config.seed << ", fingerprint "
      << campaign_fingerprint << ")\n";
  out << fmt("oracle: wall %.2fs, throughput %.1f/s, ",
             oracle.wall_time_s, oracle.throughput)
      << oracle.checkpoints << " checkpoint(s)\n";
  TextTable table({"scenario", "kind", "t", "dev", "sev", "status", "restarts",
                   "replayed", "recover_s", "backoff_s", "goodput",
                   "invariants"});
  for (const auto& s : scenarios) {
    const int violations = s.violations();
    table.add_row(
        {s.id, s.kind, fmt("%.2f", s.time_frac), std::to_string(s.device),
         fmt("%.2f", s.severity), s.status + (s.from_cache ? " (cached)" : ""),
         std::to_string(s.restarts), std::to_string(s.steps_replayed),
         fmt("%.2f", s.time_to_recover_s), fmt("%.2f", s.retry_backoff_s),
         fmt("%.1f%%", 100.0 * s.goodput_frac),
         violations == 0
             ? std::string("4/4 ok")
             : std::to_string(violations) + " VIOLATED"});
  }
  out << table.render();
  out << "summary: " << total() << " scenarios, " << passed() << " passed, "
      << violated() << " violated, " << hung() << " hung, " << failed_runs()
      << " failed run(s), " << cache_hits() << " cache hit(s)\n";
  return out.str();
}

std::string CampaignReport::render_json() const {
  json::Value root{json::Object{}};
  root.set("version", 1);
  json::Value campaign{json::Object{}};
  campaign.set("name", config.name);
  campaign.set("seed", static_cast<std::int64_t>(config.seed));
  campaign.set("workload", config.workload);
  campaign.set("system", config.system);
  campaign.set("mode", config.mode);
  campaign.set("steps", config.steps);
  campaign.set("checkpoint_every", config.checkpoint_every);
  campaign.set("retries", config.retries);
  campaign.set("tolerance", config.tolerance);
  campaign.set("deadline_s", config.deadline_s);
  campaign.set("fingerprint", campaign_fingerprint);
  root.set("campaign", std::move(campaign));

  json::Value oracle_value{json::Object{}};
  oracle_value.set("iteration_s", oracle.iteration_s);
  oracle_value.set("wall_time_s", oracle.wall_time_s);
  oracle_value.set("throughput", oracle.throughput);
  oracle_value.set("checkpoints", oracle.checkpoints);
  root.set("oracle", std::move(oracle_value));

  json::Value summary{json::Object{}};
  summary.set("scenarios", total());
  summary.set("passed", passed());
  summary.set("violated", violated());
  summary.set("hung", hung());
  summary.set("failed_runs", failed_runs());
  root.set("summary", std::move(summary));

  json::Array items;
  for (const auto& s : scenarios) {
    json::Value item{json::Object{}};
    item.set("id", s.id);
    item.set("kind", s.kind);
    item.set("time_frac", s.time_frac);
    item.set("device", s.device);
    item.set("severity", s.severity);
    item.set("plan_fingerprint", s.plan_fingerprint);
    item.set("status", s.status);
    item.set("survivable", s.survivable);
    item.set("restarts", s.restarts);
    item.set("oom_retries", s.oom_retries);
    item.set("steps_replayed", s.steps_replayed);
    item.set("time_to_recover_s", s.time_to_recover_s);
    item.set("retry_backoff_s", s.retry_backoff_s);
    item.set("checkpoint_overhead_s", s.checkpoint_overhead_s);
    item.set("goodput_frac", s.goodput_frac);
    item.set("violations", s.violations());
    json::Array invariants;
    for (const auto& invariant : s.invariants) {
      json::Value entry{json::Object{}};
      entry.set("rule", invariant.rule);
      entry.set("passed", invariant.passed);
      entry.set("detail", invariant.detail);
      invariants.push_back(std::move(entry));
    }
    item.set("invariants", json::Value(std::move(invariants)));
    items.push_back(std::move(item));
  }
  root.set("scenarios", json::Value(std::move(items)));
  return json::dump(root);
}

// --- campaign runner --------------------------------------------------------------

CampaignReport run_campaign(const CampaignConfig& config,
                            const CampaignOptions& options) {
  TELEMETRY_SPAN("chaos/campaign");
  validate_config(config);

  CampaignReport report;
  report.config = config;
  report.campaign_fingerprint = config.fingerprint();

  report.oracle = run_oracle(config);
  // Injection-time fractions resolve against the fault-free wall time, so
  // every scheduled fault lands inside the run it attacks.
  const double horizon_s = std::max(report.oracle.wall_time_s, 1.0);
  std::vector<Scenario> scenarios =
      config.mode == "grid"
          ? enumerate_grid(config.space, config.seed, horizon_s)
          : enumerate_random(config.space, config.seed, horizon_s,
                             config.scenarios);
  CARAML_CHECK_MSG(!scenarios.empty(), "campaign expanded to zero scenarios");

  auto shared = std::make_shared<CampaignShared>();
  shared->config = config;
  shared->oracle = report.oracle;
  shared->campaign_fingerprint = report.campaign_fingerprint;
  shared->out_dir =
      options.out_dir.empty()
          ? (std::filesystem::temp_directory_path() /
             ("caraml-chaos-" + report.campaign_fingerprint))
                .string()
          : options.out_dir;
  shared->manifest_path = shared->out_dir + "/manifest.jsonl";
  shared->verbose = options.verbose;
  if (!options.cache_path.empty()) shared->cache.open(options.cache_path);

  std::vector<ScenarioOutcome> outcomes(scenarios.size());
  const int jobs = options.jobs > 0
                       ? options.jobs
                       : static_cast<int>(ThreadPool::default_threads());
  if (jobs <= 1 || scenarios.size() <= 1) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      outcomes[i] = run_scenario_bounded(shared, scenarios[i]);
      if (shared->verbose) {
        log::info() << "chaos " << outcomes[i].id << ": "
                    << outcomes[i].status << ", " << outcomes[i].violations()
                    << " violation(s)";
      }
    }
  } else {
    ThreadPool pool(static_cast<std::size_t>(jobs));
    std::vector<std::future<ScenarioOutcome>> futures;
    futures.reserve(scenarios.size());
    for (const auto& scenario : scenarios) {
      futures.push_back(pool.submit(
          [shared, scenario]() {
            return run_scenario_bounded(shared, scenario);
          }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      outcomes[i] = futures[i].get();
    }
  }

  // Rank: most violated first, then lowest goodput, then stable by index —
  // the report leads with what needs attention.
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const ScenarioOutcome& a, const ScenarioOutcome& b) {
                     if (a.violations() != b.violations()) {
                       return a.violations() > b.violations();
                     }
                     if (a.goodput_frac != b.goodput_frac) {
                       return a.goodput_frac < b.goodput_frac;
                     }
                     return a.index < b.index;
                   });
  report.scenarios = std::move(outcomes);
  return report;
}

}  // namespace caraml::chaos
