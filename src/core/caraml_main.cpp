// The `caraml` command-line tool — the user-facing entry point mirroring the
// paper's Appendix-A jube workflow:
//
//   caraml systems                                     # Table I overview
//   caraml run --script configs/llm_benchmark_nvidia_amd.yaml --tag GH200
//   caraml llm --system GH200 --batch 512              # one Fig. 2 point
//   caraml resnet --system MI250 --batch 256 --devices 2
//   caraml inference --system GH200 --batch 16         # extension benchmark
//   caraml tts --system JEDI --loss 2.2                # time-to-solution
//   caraml combine --dir energy_meas                   # merge per-rank CSVs

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyse.hpp"
#include "chaos/campaign.hpp"
#include "check/layout_model.hpp"
#include "check/lint.hpp"
#include "check/rules.hpp"
#include "core/caraml.hpp"
#include "core/experiments.hpp"
#include "core/inference.hpp"
#include "core/resilient.hpp"
#include "core/time_to_solution.hpp"
#include "fault/fault.hpp"
#include "power/clock.hpp"
#include "power/combine.hpp"
#include "power/methods_sim.hpp"
#include "power/scope.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace {

using namespace caraml;

// ---------------------------------------------------------------------------
// Telemetry plumbing shared by the benchmark subcommands.
// ---------------------------------------------------------------------------

void add_telemetry_options(ArgParser& parser) {
  parser.add_option("metrics-out",
                    "directory for metrics.csv/json, energy CSVs and "
                    "manifest.jsonl ('' = off)",
                    std::string(""));
  parser.add_option("trace-out", "Chrome-trace JSON file ('' = off)",
                    std::string(""));
  parser.add_option("log-format", "log output format: text|json",
                    std::string("text"));
}

// ---------------------------------------------------------------------------
// Fault-injection flags shared by llm / resnet / inference / run.
// ---------------------------------------------------------------------------

void add_fault_options(ArgParser& parser) {
  parser.add_option("fault-plan", "YAML fault-plan file ('' = none)",
                    std::string(""));
  parser.add_option("fault-seed", "fault-injection seed", std::string("0"));
  parser.add_option("fault-rate",
                    "injected faults per simulated minute (0 = off)",
                    std::string("0"));
  parser.add_option("fault-horizon",
                    "simulated seconds the generated plan covers",
                    std::string("60"));
  parser.add_option("fault-steps", "training steps of the resilient run",
                    std::string("50"));
  parser.add_option("checkpoint-every", "steps between checkpoints",
                    std::string("10"));
  parser.add_option("checkpoint-dir",
                    "persist the latest checkpoint here ('' = off)",
                    std::string(""));
  parser.add_option("retries", "max attempts per failure", std::string("3"));
}

/// The fault flags under the workpackage-context keys the train actions read
/// (core::resilience_from_context); `caraml run` threads them into every
/// workpackage.
jube::Context fault_context(const ArgParser& parser) {
  return {{"fault_plan", parser.get("fault-plan")},
          {"fault_seed", parser.get("fault-seed")},
          {"fault_rate", parser.get("fault-rate")},
          {"fault_horizon_s", parser.get("fault-horizon")},
          {"fault_steps", parser.get("fault-steps")},
          {"checkpoint_every", parser.get("checkpoint-every")},
          {"checkpoint_dir", parser.get("checkpoint-dir")},
          {"fault_retries", parser.get("retries")}};
}

std::map<std::string, std::string> fault_config_entries(
    const ArgParser& parser) {
  return {{"fault_plan", parser.get("fault-plan")},
          {"fault_seed", parser.get("fault-seed")},
          {"fault_rate", parser.get("fault-rate")},
          {"retries", parser.get("retries")}};
}

/// Parse a --derate-device spec "d:f[,d:f]" into {device -> factor}.
std::map<int, double> parse_device_derates(const std::string& spec) {
  std::map<int, double> derates;
  if (spec.empty()) return derates;
  for (const auto& entry : str::split(spec, ',')) {
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      throw InvalidArgument("--derate-device expects d:f[,d:f], got '" +
                            spec + "'");
    }
    derates[static_cast<int>(str::parse_int(entry.substr(0, colon)))] =
        str::parse_double(entry.substr(colon + 1));
  }
  return derates;
}

void print_report(const fault::RunReport& report,
                  const fault::FaultPlan& plan) {
  std::cout << "  fault plan    : seed " << plan.seed << ", "
            << plan.events.size() << " event(s), fingerprint "
            << report.fault_fingerprint << "\n"
            << "  steps         : " << report.steps_completed << "/"
            << report.steps_total << " (replayed " << report.steps_replayed
            << ")\n"
            << "  recovery      : " << report.restarts << " restart(s), "
            << report.oom_retries << " OOM retr(y/ies), "
            << report.checkpoints_saved << " checkpoint(s), "
            << units::format_fixed(report.lost_time_s, 2) << " s lost\n";
  for (const auto& incident : report.incidents) {
    std::cout << "  incident      : " << incident << "\n";
  }
}

struct TelemetryCli {
  std::string metrics_out;
  std::string trace_out;
  std::string command;
  /// Compute precision the run used ("fp32"/"bf16"/"int8"); stamped into the
  /// manifest when non-empty. Commands with a --dtype flag set this after
  /// parsing; commands without one leave it out of their manifest lines.
  std::string dtype;

  /// Apply the parsed telemetry flags: set the log format and enable the
  /// global tracer when any output was requested (spans cost nothing
  /// otherwise).
  static TelemetryCli from_parser(const ArgParser& parser,
                                  std::string command) {
    TelemetryCli t;
    t.metrics_out = parser.get("metrics-out");
    t.trace_out = parser.get("trace-out");
    t.command = std::move(command);
    log::set_format(log::format_from_name(parser.get("log-format")));
    if (!t.trace_out.empty()) telemetry::Tracer::global().set_enabled(true);
    return t;
  }

  bool active() const { return !metrics_out.empty() || !trace_out.empty(); }

  /// Failed runs must still leave their telemetry behind: when the command
  /// throws before it could call finish(), this flushes whatever the global
  /// tracer and metrics registry accumulated and appends a failed-status
  /// manifest row. Best-effort — a flush error never masks the original one.
  ~TelemetryCli() {
    if (finished_ || !active()) return;
    try {
      auto& tracer = telemetry::Tracer::global();
      if (!trace_out.empty() && tracer.enabled()) {
        tracer.write_chrome_trace(trace_out);
        std::cerr << "telemetry: trace written to " << trace_out
                  << " (run did not finish)\n";
      }
      if (!metrics_out.empty()) {
        telemetry::Registry::global().write_files(metrics_out);
        telemetry::Manifest manifest;
        manifest.command = command;
        manifest.timestamp = telemetry::iso8601_utc_now();
        manifest.git_revision = telemetry::git_describe();
        manifest.dtype = dtype;
        manifest.status = "failed";
        telemetry::append_manifest_line(manifest,
                                        metrics_out + "/manifest.jsonl");
        std::cerr << "telemetry: metrics + failed manifest written to "
                  << metrics_out << "/\n";
      }
    } catch (...) {
    }
  }

  TelemetryCli() = default;
  TelemetryCli(TelemetryCli&& other) noexcept
      : metrics_out(std::move(other.metrics_out)),
        trace_out(std::move(other.trace_out)),
        command(std::move(other.command)),
        dtype(std::move(other.dtype)),
        finished_(other.finished_) {
    other.finished_ = true;  // the source must not flush again
  }
  TelemetryCli(const TelemetryCli&) = delete;
  TelemetryCli& operator=(const TelemetryCli&) = delete;
  TelemetryCli& operator=(TelemetryCli&&) = delete;

  /// Post-run export: replay the simulated device power trace through a
  /// PowerScope (fast-forwarded with a ScaledClock, as jpwr would sample the
  /// real device), write energy/power CSVs + metrics files + a manifest line
  /// into --metrics-out, and the combined Chrome trace to --trace-out.
  /// Sweep execution provenance for the manifest's "sweep" block.
  struct SweepInfo {
    std::int64_t workpackages = 0;
    int jobs = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
  };

  void finish(const std::string& command, const std::string& system_tag,
              const std::map<std::string, std::string>& config,
              const std::map<std::string, double>& results,
              const std::optional<sim::PowerTrace>& device_trace,
              const fault::RunReport* report = nullptr,
              const SweepInfo* sweep = nullptr) const {
    finished_ = true;  // a deliberate export supersedes the destructor flush
    telemetry::Manifest manifest;
    manifest.command = command;
    manifest.timestamp = telemetry::iso8601_utc_now();
    manifest.system_tag = system_tag;
    manifest.git_revision = telemetry::git_describe();
    manifest.config = config;
    manifest.results = results;
    manifest.num_threads =
        static_cast<std::int64_t>(ThreadPool::global().size());
    manifest.dtype = dtype;
    if (sweep != nullptr) {
      manifest.sweep_workpackages = sweep->workpackages;
      manifest.sweep_jobs = sweep->jobs;
      manifest.sweep_cache_hits = sweep->cache_hits;
      manifest.sweep_cache_misses = sweep->cache_misses;
    }
    if (report != nullptr) {
      manifest.status = report->status;
      manifest.fault_seed = report->fault_seed;
      manifest.fault_fingerprint = report->fault_fingerprint;
      manifest.fault_events = report->fault_events;
      manifest.oom_retries = report->oom_retries;
      manifest.restarts = report->restarts;
      manifest.checkpoints = report->checkpoints_saved;
      manifest.steps_replayed = report->steps_replayed;
    }

    auto& tracer = telemetry::Tracer::global();
    if (!metrics_out.empty() && device_trace.has_value()) {
      // Sample the virtual trace at ~50 points, compressed to <= 0.2 wall
      // seconds. interval_ms is a wall period, so the clock-time spacing is
      // horizon / 50 once the ScaledClock speed-up is applied.
      const double horizon = std::max(device_trace->horizon(), 1e-6);
      const double speed = std::max(1.0, horizon / 0.2);
      const double wall_interval_ms = 1000.0 * horizon / (50.0 * speed);
      power::PowerScope scope(
          {power::make_pynvml_sim({*device_trace})}, wall_interval_ms,
          std::make_shared<power::ScaledClock>(speed));
      std::this_thread::sleep_for(
          std::chrono::duration<double>(horizon / speed));
      scope.stop();

      power::ExportOptions options;
      options.out_dir = metrics_out;
      power::export_results(scope, options);
      if (tracer.enabled()) power::append_counter_track(scope, tracer);

      const auto diag = scope.diagnostics();
      manifest.power_samples = diag.samples;
      manifest.sample_overruns = diag.overruns;
      manifest.sample_jitter_ms_mean = diag.jitter_ms_mean;
      manifest.sample_jitter_ms_max = diag.jitter_ms_max;
      manifest.method_errors = diag.method_errors;
      manifest.methods_quarantined = diag.methods_quarantined;
    }
    if (!metrics_out.empty()) {
      telemetry::Registry::global().write_files(metrics_out);
      telemetry::append_manifest_line(manifest,
                                      metrics_out + "/manifest.jsonl");
      std::cout << "telemetry: metrics + manifest written to " << metrics_out
                << "/\n";
    }
    if (!trace_out.empty()) {
      tracer.write_chrome_trace(trace_out);
      std::cout << "telemetry: trace written to " << trace_out << " ("
                << tracer.num_events() << " events)\n";
    }
  }

 private:
  mutable bool finished_ = false;
};

int cmd_systems() {
  TextTable table({"tag", "system", "devices", "accelerator", "peak FP16",
                   "memory", "TDP", "peer link"});
  for (const auto& node : topo::SystemRegistry::instance().all()) {
    table.add_row({node.jube_tag, node.display_name,
                   std::to_string(node.devices_per_node), node.device.name,
                   units::format_flops(node.device.peak_fp16_flops),
                   units::format_bytes(node.device.mem_capacity_bytes),
                   units::format_watts(node.device.tdp_watts),
                   node.peer_link.name});
  }
  std::cout << "Systems (paper Table I):\n" << table.render();
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  ArgParser parser("caraml run", "run a JUBE benchmark script");
  parser.add_option("script", "YAML script path");
  parser.add_option("tag", "system tag", std::string(""));
  parser.add_option("step-timeout", "seconds per step attempt (0 = none)",
                    std::string("0"));
  parser.add_option("sweep-jobs",
                    "concurrent workpackages (1 = sequential, 0 = one per "
                    "hardware thread)",
                    std::string("1"));
  parser.add_option("sweep-cache",
                    "JSONL result-cache file; re-runs skip cached "
                    "workpackages ('' = off)",
                    std::string(""));
  parser.add_flag("analyse",
                  "run bottleneck analysis per workpackage; annotates every "
                  "manifest row with the ranked top bottlenecks");
  parser.add_flag("skip-doomed",
                  "statically analyze each workpackage's parallel layout "
                  "before dispatch and skip those the layout analyzer proves "
                  "cannot run (invalid layout or certain OOM)");
  add_telemetry_options(parser);
  add_fault_options(parser);
  if (!parser.parse(args)) return 0;
  const TelemetryCli telemetry = TelemetryCli::from_parser(parser, "run");

  jube::Benchmark benchmark =
      jube::Benchmark::from_yaml_file(parser.get("script"));
  for (const auto& pattern : core::caraml_patterns()) {
    benchmark.add_pattern(pattern);
  }
  jube::ActionRegistry registry;
  core::register_caraml_actions(registry);
  std::set<std::string> tags;
  if (!parser.get("tag").empty()) tags.insert(parser.get("tag"));

  const bool analyse = parser.get_flag("analyse");
  if (analyse) {
    // Thread the flag into every workpackage context, same as the fault
    // flags below; the train actions emit bottlenecks/top_bottleneck lines
    // the analyse patterns lift into the manifest rows.
    jube::ParameterSet analyse_set;
    analyse_set.name = "analysis";
    analyse_set.parameters = {jube::Parameter{"analyse", {"1"}, ""}};
    benchmark.add_parameter_set(std::move(analyse_set));
  }

  jube::SweepOptions sweep;
  sweep.jobs = static_cast<int>(parser.get_int("sweep-jobs"));
  sweep.cache_path = parser.get("sweep-cache");
  if (parser.get_flag("skip-doomed")) {
    sweep.static_gate = [](const jube::Context& context,
                           const std::vector<std::string>& actions) {
      return check::workpackage_doom_reason(context, actions);
    };
  }
  if (!parser.get("fault-plan").empty()) {
    // A fault-plan file changes what workpackages experience without leaving
    // a trace in their contexts' values alone — fold its fingerprint into
    // the cache identity so cached results never cross fault schedules.
    // (Generated plans are covered by the fault_* context parameters below.)
    sweep.fault_fingerprint =
        fault::FaultPlan::from_yaml_file(parser.get("fault-plan"))
            .fingerprint();
  }

  const jube::Context faults = fault_context(parser);
  const bool resilient = core::fault_requested(faults) ||
                         parser.get_double("step-timeout") > 0.0;
  jube::RunResult result;
  if (resilient) {
    if (core::fault_requested(faults)) {
      // Thread the fault flags into every workpackage context so the train
      // actions pick them up.
      jube::ParameterSet fault_set;
      fault_set.name = "fault_injection";
      for (const auto& [name, value] : faults) {
        fault_set.parameters.push_back(jube::Parameter{name, {value}, ""});
      }
      benchmark.add_parameter_set(std::move(fault_set));
    }
    jube::RunOptions options;
    options.retry.max_attempts = static_cast<int>(parser.get_int("retries"));
    options.retry.seed =
        static_cast<std::uint64_t>(parser.get_int("fault-seed"));
    options.step_timeout_s = parser.get_double("step-timeout");
    result = benchmark.run(registry, tags, options, sweep);
  } else {
    result = benchmark.run(registry, tags, sweep);
  }
  std::cout << "benchmark '" << benchmark.name() << "': "
            << result.workpackages.size() << " workpackages";
  if (sweep.jobs != 1) std::cout << " (jobs=" << sweep.jobs << ")";
  if (result.skipped > 0) {
    std::cout << ", " << result.skipped << " skipped as statically doomed";
  }
  std::cout << "\n";
  if (!sweep.cache_path.empty()) {
    std::cout << "sweep cache " << sweep.cache_path << ": "
              << result.cache_hits << " hit(s), " << result.cache_misses
              << " miss(es)\n";
  }
  const bool llm = benchmark.name().find("llm") != std::string::npos;
  const bool smoke = benchmark.name().find("smoke") != std::string::npos;
  std::vector<std::string> columns =
      smoke ? std::vector<std::string>{"shard", "sleep_ms", "slept_ms",
                                       "status"}
      : llm ? std::vector<std::string>{"system", "global_batch", "dtype",
                                       "tokens_per_s", "energy_wh",
                                       "tokens_per_wh", "status"}
            : std::vector<std::string>{"system", "global_batch", "devices",
                                       "images_per_s", "energy_wh",
                                       "images_per_wh", "status"};
  if (analyse) columns.push_back("top_bottleneck");
  std::cout << result.table(columns).render();
  int failed = 0;
  for (const auto& wp : result.workpackages) {
    if (wp.status == "failed") ++failed;
  }

  if (telemetry.active()) {
    TelemetryCli::SweepInfo info;
    info.workpackages =
        static_cast<std::int64_t>(result.workpackages.size());
    info.jobs = sweep.jobs;
    info.cache_hits = static_cast<std::int64_t>(result.cache_hits);
    info.cache_misses = static_cast<std::int64_t>(result.cache_misses);
    telemetry.finish(
        "run", parser.get("tag"),
        {{"script", parser.get("script")},
         {"sweep_jobs", parser.get("sweep-jobs")},
         {"sweep_cache", parser.get("sweep-cache")}},
        {{"workpackages",
          static_cast<double>(result.workpackages.size())},
         {"failed", static_cast<double>(failed)}},
        std::nullopt, nullptr, &info);
  }

  if (failed > 0) {
    std::cout << failed << " workpackage(s) failed\n";
    return 1;
  }
  return 0;
}

int cmd_llm(const std::vector<std::string>& args) {
  ArgParser parser("caraml llm", "one LLM-training benchmark point");
  parser.add_option("system", "system tag", std::string("A100"));
  parser.add_option("batch", "global batch (sequences; tokens for GC200)",
                    std::string("256"));
  parser.add_option("micro-batch", "micro batch", std::string("4"));
  parser.add_option("devices", "devices (-1 = full node)", std::string("-1"));
  parser.add_option("tp", "tensor parallel", std::string("1"));
  parser.add_option("pp", "pipeline parallel", std::string("1"));
  parser.add_option("nodes", "number of nodes", std::string("1"));
  parser.add_option("model", "117M|800M|13B|175B", std::string("800M"));
  parser.add_option("dtype",
                    "training precision: bf16 (mixed precision, default) | "
                    "fp32 (int8 is inference-only)",
                    std::string("bf16"));
  parser.add_option("derate-device",
                    "per-device compute slowdown d:f[,d:f] (factor >= 1) — "
                    "builds an imbalanced layout for analyse-trace",
                    std::string(""));
  add_telemetry_options(parser);
  add_fault_options(parser);
  if (!parser.parse(args)) return 0;
  TelemetryCli telemetry = TelemetryCli::from_parser(parser, "llm");
  core::LlmRunConfig config = core::llm_run_config(
      {{"system", parser.get("system")},
       {"global_batch", parser.get("batch")},
       {"micro_batch", parser.get("micro-batch")},
       {"devices", parser.get("devices")},
       {"tp", parser.get("tp")},
       {"pp", parser.get("pp")},
       {"model", parser.get("model")},
       {"dtype", parser.get("dtype")}});

  if (config.system_tag == "GC200") {
    const auto result = core::run_llm_ipu(config.global_batch);
    std::cout << "IPU GC200 (POD4), " << result.batch_tokens
              << "-token batch:\n"
              << "  tokens/s      : "
              << units::format_fixed(result.tokens_per_s, 2) << "\n"
              << "  Wh/epoch/IPU  : "
              << units::format_fixed(result.energy_per_epoch_wh, 2) << "\n"
              << "  tokens/Wh     : "
              << units::format_fixed(result.tokens_per_wh, 2) << "\n"
              << "  bubble        : "
              << units::format_fixed(result.pipeline_bubble, 3) << "\n";
    if (telemetry.active()) {
      telemetry.finish(
          "llm", "GC200",
          {{"batch_tokens", std::to_string(result.batch_tokens)}},
          {{"tokens_per_s", result.tokens_per_s},
           {"energy_per_epoch_wh", result.energy_per_epoch_wh},
           {"tokens_per_wh", result.tokens_per_wh}},
          std::nullopt);
    }
    return 0;
  }

  config.num_nodes = static_cast<int>(parser.get_int("nodes"));
  config.device_compute_derate =
      parse_device_derates(parser.get("derate-device"));
  const std::string dtype = parser.get("dtype");
  telemetry.dtype = dtype;

  std::map<std::string, std::string> run_config = {
      {"model", config.model.name},
      {"dtype", dtype},
      {"global_batch", std::to_string(config.global_batch)},
      {"micro_batch", std::to_string(config.micro_batch)},
      {"devices", std::to_string(config.devices)},
      {"tp", std::to_string(config.tensor_parallel)},
      {"pp", std::to_string(config.pipeline_parallel)},
      {"nodes", std::to_string(config.num_nodes)}};

  const jube::Context faults = fault_context(parser);
  if (core::fault_requested(faults)) {
    const auto& node =
        topo::SystemRegistry::instance().by_tag(config.system_tag);
    const int devices =
        (config.devices > 0 ? config.devices : node.devices_per_node) *
        config.num_nodes;
    const auto options = core::resilience_from_context(faults, devices);
    const auto resilient = core::run_llm_resilient(config, options);
    for (const auto& [key, value] : fault_config_entries(parser)) {
      run_config[key] = value;
    }
    std::cout << config.system_tag << ", " << config.model.name
              << ": resilient run -> " << resilient.report.status << "\n";
    print_report(resilient.report, options.plan);
    std::cout << "  micro batch   : " << resilient.final_micro_batch << "\n"
              << "  eff tokens/s  : "
              << units::format_fixed(resilient.effective_tokens_per_s_total, 1)
              << "\n"
              << "  eff power/GPU : "
              << units::format_watts(resilient.effective_avg_power_per_gpu_w)
              << "\n";
    if (telemetry.active()) {
      telemetry.finish(
          "llm", config.system_tag, run_config,
          {{"effective_tokens_per_s", resilient.effective_tokens_per_s_total},
           {"effective_avg_power_per_gpu_w",
            resilient.effective_avg_power_per_gpu_w},
           {"effective_energy_per_gpu_wh",
            resilient.effective_energy_per_gpu_wh},
           {"steps_completed",
            static_cast<double>(resilient.report.steps_completed)},
           {"final_micro_batch",
            static_cast<double>(resilient.final_micro_batch)}},
          resilient.base.device0_trace, &resilient.report);
    }
    return resilient.report.status == "failed" ? 1 : 0;
  }

  const auto result = core::run_llm_gpu(config);
  if (result.oom) {
    std::cout << "OOM: " << result.oom_message << "\n";
    if (telemetry.active()) {
      telemetry.finish("llm", config.system_tag, run_config, {{"oom", 1.0}},
                       std::nullopt);
    }
    return 1;
  }
  if (telemetry.active()) {
    telemetry.finish("llm", config.system_tag, run_config,
                     {{"iteration_time_s", result.iteration_time_s},
                      {"tokens_per_s_per_gpu", result.tokens_per_s_per_gpu},
                      {"tokens_per_s_total", result.tokens_per_s_total},
                      {"mfu", result.mfu},
                      {"avg_power_per_gpu_w", result.avg_power_per_gpu_w},
                      {"tokens_per_wh", result.tokens_per_wh}},
                     result.device0_trace);
  }
  std::cout << result.system << ", " << config.model.name << ", batch "
            << result.global_batch << " (dp=" << result.data_parallel
            << ", tp=" << config.tensor_parallel
            << ", pp=" << config.pipeline_parallel << "):\n"
            << "  tokens/s/GPU  : "
            << units::format_fixed(result.tokens_per_s_per_gpu, 1) << "\n"
            << "  tokens/s total: "
            << units::format_fixed(result.tokens_per_s_total, 1) << "\n"
            << "  MFU           : "
            << units::format_fixed(result.mfu * 100, 1) << " %\n"
            << "  avg power/GPU : "
            << units::format_watts(result.avg_power_per_gpu_w) << "\n"
            << "  tokens/Wh     : "
            << units::format_fixed(result.tokens_per_wh, 0) << "\n"
            << "  memory/device : "
            << units::format_bytes(result.memory_per_device_bytes) << "\n";
  return 0;
}

int cmd_resnet(const std::vector<std::string>& args) {
  ArgParser parser("caraml resnet", "one ResNet50 benchmark point");
  parser.add_option("system", "system tag", std::string("A100"));
  parser.add_option("batch", "global batch", std::string("256"));
  parser.add_option("devices", "accelerator count", std::string("1"));
  parser.add_flag("synthetic", "use synthetic data (skip host pipeline)");
  parser.add_option("variant", "resnet18|resnet34|resnet50",
                    std::string("resnet50"));
  parser.add_option("derate-device",
                    "per-device compute slowdown d:f[,d:f] (factor >= 1)",
                    std::string(""));
  add_telemetry_options(parser);
  add_fault_options(parser);
  if (!parser.parse(args)) return 0;
  const TelemetryCli telemetry = TelemetryCli::from_parser(parser, "resnet");

  core::ResnetRunConfig config = core::resnet_run_config(
      {{"system", parser.get("system")},
       {"global_batch", parser.get("batch")},
       {"devices", parser.get("devices")},
       {"variant", parser.get("variant")},
       {"synthetic", parser.get_flag("synthetic") ? "true" : "false"}});
  config.device_compute_derate =
      parse_device_derates(parser.get("derate-device"));
  std::map<std::string, std::string> run_config = {
      {"variant", parser.get("variant")},
      {"global_batch", std::to_string(config.global_batch)},
      {"devices", std::to_string(config.devices)},
      {"synthetic", config.synthetic_data ? "1" : "0"}};

  const jube::Context faults = fault_context(parser);
  if (core::fault_requested(faults)) {
    const auto options =
        core::resilience_from_context(faults, std::max(1, config.devices));
    const auto resilient = core::run_resnet_resilient(config, options);
    for (const auto& [key, value] : fault_config_entries(parser)) {
      run_config[key] = value;
    }
    std::cout << config.system_tag << ", ResNet: resilient run -> "
              << resilient.report.status << "\n";
    print_report(resilient.report, options.plan);
    std::cout << "  global batch  : " << resilient.final_global_batch << "\n"
              << "  eff images/s  : "
              << units::format_fixed(resilient.effective_images_per_s_total, 1)
              << "\n"
              << "  eff power/dev : "
              << units::format_watts(
                     resilient.effective_avg_power_per_device_w)
              << "\n";
    if (telemetry.active()) {
      telemetry.finish(
          "resnet", config.system_tag, run_config,
          {{"effective_images_per_s", resilient.effective_images_per_s_total},
           {"effective_avg_power_per_device_w",
            resilient.effective_avg_power_per_device_w},
           {"effective_energy_per_device_wh",
            resilient.effective_energy_per_device_wh},
           {"steps_completed",
            static_cast<double>(resilient.report.steps_completed)},
           {"final_global_batch",
            static_cast<double>(resilient.final_global_batch)}},
          resilient.base.device0_trace, &resilient.report);
    }
    return resilient.report.status == "failed" ? 1 : 0;
  }

  const auto result = core::run_resnet(config);
  if (result.oom) {
    std::cout << "OOM: " << result.oom_message << "\n";
    if (telemetry.active()) {
      telemetry.finish("resnet", config.system_tag, run_config,
                       {{"oom", 1.0}}, std::nullopt);
    }
    return 1;
  }
  if (telemetry.active()) {
    telemetry.finish(
        "resnet", config.system_tag, run_config,
        {{"iteration_time_s", result.iteration_time_s},
         {"images_per_s_total", result.images_per_s_total},
         {"avg_power_per_device_w", result.avg_power_per_device_w},
         {"energy_per_epoch_wh", result.energy_per_epoch_wh},
         {"images_per_wh", result.images_per_wh}},
        result.device0_trace);
  }
  std::cout << result.system << ", batch " << result.global_batch << " on "
            << result.devices << " device(s):\n"
            << "  images/s      : "
            << units::format_fixed(result.images_per_s_total, 1) << "\n"
            << "  avg power/dev : "
            << units::format_watts(result.avg_power_per_device_w) << "\n"
            << "  Wh/epoch      : "
            << units::format_fixed(result.energy_per_epoch_wh, 1) << "\n"
            << "  images/Wh     : "
            << units::format_fixed(result.images_per_wh, 0) << "\n";
  return 0;
}

int cmd_inference(const std::vector<std::string>& args) {
  ArgParser parser("caraml inference", "LLM inference extension benchmark");
  parser.add_option("system", "system tag", std::string("GH200"));
  parser.add_option("batch", "concurrent sequences", std::string("8"));
  parser.add_option("prompt", "prompt tokens", std::string("512"));
  parser.add_option("generate", "generated tokens", std::string("128"));
  parser.add_option("dtype",
                    "serving precision: bf16 (default) | fp32 | int8 "
                    "(quantized weights, 2x prefill peak)",
                    std::string("bf16"));
  add_telemetry_options(parser);
  add_fault_options(parser);
  if (!parser.parse(args)) return 0;
  TelemetryCli telemetry = TelemetryCli::from_parser(parser, "inference");

  core::InferenceConfig config;
  config.system_tag = parser.get("system");
  config.batch = parser.get_int("batch");
  config.prompt_tokens = parser.get_int("prompt");
  config.generate_tokens = parser.get_int("generate");
  config.dtype = parser.get("dtype");
  telemetry.dtype = config.dtype;

  // Inference has no step timeline to checkpoint; fault flags stamp the
  // manifest with the plan's provenance and retry a flaky run.
  std::optional<core::ResilienceOptions> resilience;
  fault::RunReport report;
  const jube::Context faults = fault_context(parser);
  if (core::fault_requested(faults)) {
    resilience = core::resilience_from_context(faults, 1);
    report.fault_seed = resilience->plan.seed;
    report.fault_fingerprint = resilience->plan.fingerprint();
    report.fault_events =
        static_cast<std::int64_t>(resilience->plan.events.size());
  }
  std::map<std::string, std::string> run_config = {
      {"batch", std::to_string(config.batch)},
      {"dtype", config.dtype},
      {"prompt_tokens", std::to_string(config.prompt_tokens)},
      {"generate_tokens", std::to_string(config.generate_tokens)}};
  if (resilience.has_value()) {
    for (const auto& [key, value] : fault_config_entries(parser)) {
      run_config[key] = value;
    }
  }

  core::InferenceResult result;
  if (resilience.has_value()) {
    const fault::RetryOutcome outcome = fault::retry_with_backoff(
        "inference", resilience->retry,
        [&]() { result = core::run_llm_inference(config); });
    if (!outcome.succeeded) {
      report.status = "failed";
      report.incidents.push_back(outcome.last_error);
      std::cout << "inference failed after " << outcome.attempts
                << " attempt(s): " << outcome.last_error << "\n";
      if (telemetry.active()) {
        telemetry.finish("inference", config.system_tag, run_config,
                         {{"attempts", static_cast<double>(outcome.attempts)}},
                         std::nullopt, &report);
      }
      return 1;
    }
    if (outcome.attempts > 1) report.status = "degraded";
  } else {
    result = core::run_llm_inference(config);
  }

  if (result.oom) {
    if (resilience.has_value()) report.status = "failed";
    std::cout << "OOM: " << result.oom_message << "\n";
    if (telemetry.active()) {
      telemetry.finish("inference", config.system_tag, run_config,
                       {{"oom", 1.0}}, std::nullopt,
                       resilience.has_value() ? &report : nullptr);
    }
    return 1;
  }
  if (telemetry.active()) {
    telemetry.finish(
        "inference", config.system_tag, run_config,
        {{"time_to_first_token_s", result.time_to_first_token_s},
         {"tokens_per_s_per_user", result.tokens_per_s_per_user},
         {"tokens_per_s_total", result.tokens_per_s_total},
         {"energy_per_1k_tokens_wh", result.energy_per_1k_tokens_wh}},
        std::nullopt, resilience.has_value() ? &report : nullptr);
  }
  std::cout << result.system << ", batch " << result.batch << ", "
            << config.dtype << ":\n"
            << "  time-to-first-token : "
            << units::format_seconds(result.time_to_first_token_s) << "\n"
            << "  tokens/s/user       : "
            << units::format_fixed(result.tokens_per_s_per_user, 1) << "\n"
            << "  tokens/s total      : "
            << units::format_fixed(result.tokens_per_s_total, 1) << "\n"
            << "  Wh / 1k tokens      : "
            << units::format_fixed(result.energy_per_1k_tokens_wh, 3) << "\n"
            << "  KV cache            : "
            << units::format_bytes(result.kv_cache_bytes) << "\n";
  return 0;
}

int cmd_lint(const std::vector<std::string>& args) {
  ArgParser parser("caraml lint",
                   "statically validate suite inputs (JUBE scripts, fault "
                   "plans, calibration tables) without running anything");
  parser.add_option("format", "report format: human|json",
                    std::string("human"));
  parser.add_option("json-out",
                    "also write the JSON report here ('' = off)",
                    std::string(""));
  parser.add_flag("strict", "treat warnings as errors for the exit code");
  parser.add_flag("list-rules", "print the rule catalogue and exit");
  parser.set_collect_positionals(true);  // paths and options interleave
  if (!parser.parse(args)) return 0;

  if (parser.get_flag("list-rules")) {
    // Deterministically sorted by rule id, independent of registration
    // order, so the output is diff-stable as rule families grow.
    std::vector<const check::RuleInfo*> rules;
    for (const auto& rule : check::rule_catalogue()) rules.push_back(&rule);
    std::sort(rules.begin(), rules.end(),
              [](const check::RuleInfo* a, const check::RuleInfo* b) {
                return a->id < b->id;
              });
    TextTable table({"rule", "severity", "summary"});
    for (const check::RuleInfo* rule : rules) {
      table.add_row(
          {rule->id, check::severity_name(rule->severity), rule->summary});
    }
    std::cout << table.render();
    return 0;
  }

  const std::vector<std::string>& paths = parser.rest();
  if (paths.empty()) {
    std::cerr << "caraml lint: no paths given (try: caraml lint configs)\n";
    return 2;
  }

  // The registered action names give jube/unknown-action its universe.
  jube::ActionRegistry registry;
  core::register_caraml_actions(registry);
  check::LintOptions options;
  options.known_action = [&registry](const std::string& name) {
    return registry.has(name);
  };

  check::DiagnosticList diags = check::lint_paths(paths, options);
  const std::string format = parser.get("format");
  if (format == "json") {
    std::cout << diags.render_json() << "\n";
  } else if (format == "human") {
    std::cout << diags.render_human();
  } else {
    std::cerr << "caraml lint: unknown format '" << format << "'\n";
    return 2;
  }
  if (!parser.get("json-out").empty()) {
    std::ofstream out(parser.get("json-out"));
    if (!out) {
      std::cerr << "caraml lint: cannot write " << parser.get("json-out")
                << "\n";
      return 2;
    }
    out << diags.render_json() << "\n";
  }
  const bool failed =
      diags.has_errors() ||
      (parser.get_flag("strict") &&
       diags.count(check::Severity::kWarning) > 0);
  return failed ? 1 : 0;
}

int cmd_analyse_trace(const std::vector<std::string>& args) {
  ArgParser parser("caraml analyse-trace",
                   "automated bottleneck analysis over a Chrome trace: "
                   "critical path, pipeline bubbles, collective patterns, "
                   "load imbalance, queue wait, energy attribution");
  parser.add_option("format", "report format: human|json",
                    std::string("human"));
  parser.add_option("json-out",
                    "also write the JSON report here ('' = off)",
                    std::string(""));
  parser.add_option("top", "findings kept in the bottleneck summary",
                    std::string("5"));
  parser.add_option("metrics",
                    "telemetry dir whose manifest.jsonl names the run "
                    "('' = off)",
                    std::string(""));
  parser.add_flag("list-detectors", "print the detector catalogue and exit");
  parser.set_collect_positionals(true);  // trace paths and options interleave
  if (!parser.parse(args)) return 0;

  if (parser.get_flag("list-detectors")) {
    TextTable table({"detector", "rule", "severity", "summary"});
    for (const auto& info : analysis::detector_catalogue()) {
      const check::RuleInfo* rule = check::find_rule(info.rule_id);
      table.add_row({info.name, info.rule_id,
                     rule != nullptr ? check::severity_name(rule->severity)
                                     : "?",
                     info.summary});
    }
    std::cout << table.render();
    return 0;
  }

  const std::string format = parser.get("format");
  if (format != "human" && format != "json") {
    std::cerr << "caraml analyse-trace: unknown format '" << format << "'\n";
    return 2;
  }
  const std::vector<std::string>& paths = parser.rest();
  if (paths.empty()) {
    std::cerr << "caraml analyse-trace: no trace file given (run a benchmark "
                 "with --trace-out first)\n";
    return 2;
  }

  analysis::AnalyseOptions options;
  options.top_n = static_cast<int>(parser.get_int("top"));
  options.metrics_dir = parser.get("metrics");

  int failed = 0;
  for (const auto& path : paths) {
    std::string rendered;
    std::string json_doc;  // --json-out always gets JSON, whatever --format
    try {
      const analysis::AnalysisReport report =
          analysis::analyse_file(path, options);
      json_doc = analysis::render_json(report) + "\n";
      rendered =
          format == "json" ? json_doc : analysis::render_human(report);
    } catch (const ParseError& e) {
      // Malformed trace: report through the diagnostics engine in the chosen
      // format (message carries the byte offset), exit nonzero.
      std::string message = e.what();
      const std::string prefix = path + ": ";
      if (message.rfind(prefix, 0) == 0) message = message.substr(prefix.size());
      check::DiagnosticList diags;
      check::Diagnostic diagnostic;
      diagnostic.rule_id = "analysis/trace-error";
      diagnostic.severity = check::Severity::kError;
      diagnostic.location.file = path;
      diagnostic.message = message;
      diags.add(std::move(diagnostic));
      json_doc = diags.render_json() + "\n";
      rendered = format == "json" ? json_doc : diags.render_human();
      ++failed;
    }
    std::cout << rendered;
    if (!parser.get("json-out").empty()) {
      std::ofstream out(parser.get("json-out"));
      if (!out) {
        std::cerr << "caraml analyse-trace: cannot write "
                  << parser.get("json-out") << "\n";
        return 2;
      }
      out << json_doc;
    }
  }
  return failed > 0 ? 1 : 0;
}

int cmd_chaos(const std::vector<std::string>& args) {
  ArgParser parser("caraml chaos",
                   "systematic fault-space campaign: enumerate fault kind x "
                   "time x device x severity, run each scenario through the "
                   "resilient runners, verify the recovery invariants");
  parser.add_option("campaign", "campaign YAML (top-level `campaign:` map)",
                    std::string(""));
  parser.add_option("jobs", "parallel scenarios (0 = one per hardware thread)",
                    std::string("0"));
  parser.add_option("cache",
                    "sweep-style scenario result cache JSONL ('' = off)",
                    std::string(""));
  parser.add_option("out",
                    "directory for manifests + checkpoints (default: temp)",
                    std::string(""));
  parser.add_option("format", "report format: human|json",
                    std::string("human"));
  parser.add_option("json-out",
                    "also write the JSON report here ('' = off)",
                    std::string(""));
  parser.add_flag("verbose", "log each scenario outcome as it lands");
  if (!parser.parse(args)) return 0;

  const std::string format = parser.get("format");
  if (format != "human" && format != "json") {
    std::cerr << "caraml chaos: unknown format '" << format << "'\n";
    return 2;
  }
  const std::string campaign_path = parser.get("campaign");
  if (campaign_path.empty()) {
    std::cerr << "caraml chaos: no campaign given (try: caraml chaos "
                 "--campaign configs/chaos_smoke.yaml)\n";
    return 2;
  }

  const chaos::CampaignConfig config =
      chaos::CampaignConfig::from_yaml_file(campaign_path);
  chaos::CampaignOptions options;
  options.jobs = static_cast<int>(parser.get_int("jobs"));
  options.cache_path = parser.get("cache");
  options.out_dir = parser.get("out");
  options.verbose = parser.get_flag("verbose");

  const chaos::CampaignReport report = chaos::run_campaign(config, options);
  const std::string json_doc = report.render_json() + "\n";
  std::cout << (format == "json" ? json_doc : report.render_human());
  if (format == "human" && report.violated() > 0) {
    // Violations as located diagnostics against the campaign file, so the
    // failure mode reads like every other caraml lint/check report.
    check::DiagnosticList diags;
    report.to_diagnostics(campaign_path, diags);
    diags.sort();
    std::cout << diags.render_human();
  }
  if (!parser.get("json-out").empty()) {
    std::ofstream out(parser.get("json-out"));
    if (!out) {
      std::cerr << "caraml chaos: cannot write " << parser.get("json-out")
                << "\n";
      return 2;
    }
    out << json_doc;
  }
  return report.violated() > 0 ? 1 : 0;
}

int cmd_tts(const std::vector<std::string>& args) {
  ArgParser parser("caraml tts", "time/energy to a target loss");
  parser.add_option("system", "system tag", std::string("JEDI"));
  parser.add_option("loss", "target loss", std::string("2.2"));
  parser.add_option("batch", "global batch", std::string("1024"));
  if (!parser.parse(args)) return 0;

  core::LlmRunConfig config;
  config.system_tag = parser.get("system");
  config.global_batch = parser.get_int("batch");
  const auto result = core::estimate_time_to_solution(
      config, parser.get_double("loss"));
  std::cout << result.system << " to loss " << result.target_loss << ":\n"
            << "  tokens needed : "
            << units::format_fixed(result.tokens_needed / 1e9, 2) << " B\n"
            << "  wall time     : "
            << units::format_fixed(result.hours_to_solution, 1) << " h\n"
            << "  energy        : "
            << units::format_fixed(result.node_energy_kwh, 1) << " kWh\n";
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  ArgParser parser("caraml export", "write every experiment as CSV");
  parser.add_option("out", "output directory", std::string("experiments_csv"));
  if (!parser.parse(args)) return 0;
  const int written = core::export_all_experiments(parser.get("out"));
  std::cout << "wrote " << written << " CSV files to " << parser.get("out")
            << "/\n";
  return 0;
}

int cmd_combine(const std::vector<std::string>& args) {
  ArgParser parser("caraml combine", "merge per-rank jpwr energy CSVs");
  parser.add_option("dir", "directory with energy_<rank>.csv files");
  parser.add_option("stem", "file stem", std::string("energy"));
  if (!parser.parse(args)) return 0;

  const auto combined =
      power::combine_rank_csvs(parser.get("dir"), parser.get("stem"));
  std::cout << "combined (" << combined.num_rows() << " rows):\n"
            << combined.to_string(20) << "\naggregated per channel:\n"
            << power::aggregate_energy(combined).to_string(20);
  return 0;
}

void print_usage() {
  std::cout <<
      "caraml — CARAML benchmark suite (C++ reproduction)\n"
      "usage: caraml <command> [options]\n\n"
      "commands:\n"
      "  systems     list the Table-I systems and their JUBE tags\n"
      "  run         run a JUBE YAML script (--script, --tag)\n"
      "  llm         one LLM-training point (--system, --batch, ...)\n"
      "  resnet      one ResNet50 point (--system, --batch, --devices)\n"
      "  inference   LLM inference extension (--system, --batch)\n"
      "  lint        statically validate configs / fault plans / calibration\n"
      "              tables (options, then paths; --format human|json,\n"
      "              --json-out FILE, --strict, --list-rules)\n"
      "  analyse-trace\n"
      "              automated bottleneck analysis over a --trace-out file:\n"
      "              critical path, pipeline bubbles, collective patterns,\n"
      "              load imbalance, queue wait, energy attribution\n"
      "              (--format human|json, --json-out FILE, --top N,\n"
      "              --metrics DIR, --list-detectors)\n"
      "  chaos       fault-space campaign with recovery-invariant checks\n"
      "              (--campaign FILE, --jobs N, --cache FILE, --out DIR,\n"
      "              --format human|json, --json-out FILE, --verbose)\n"
      "  tts         time/energy-to-solution estimate (--system, --loss)\n"
      "  combine     merge per-rank jpwr CSVs (--dir)\n"
      "  export      write every experiment's data as CSV (--out)\n\n"
      "telemetry (llm / resnet / inference):\n"
      "  --metrics-out DIR   metrics.csv/json, energy CSVs, manifest.jsonl\n"
      "  --trace-out FILE    Chrome-trace JSON (open in Perfetto, or feed to\n"
      "                      caraml analyse-trace); written even when the\n"
      "                      run fails\n"
      "  --log-format FMT    text (default) or json structured logs\n"
      "  --derate-device d:f[,d:f]\n"
      "                      (llm / resnet) slow device d's compute by factor\n"
      "                      f >= 1 — deliberate load imbalance for analysis\n"
      "  --analyse           (run) per-workpackage bottleneck analysis; adds\n"
      "                      bottlenecks/top_bottleneck to manifest rows\n\n"
      "fault injection (llm / resnet / inference / run):\n"
      "  --fault-plan FILE   YAML fault schedule (device/throttle/link/sensor)\n"
      "  --fault-seed N --fault-rate R\n"
      "                      generate a deterministic plan instead (R faults\n"
      "                      per simulated minute over --fault-horizon s)\n"
      "  --fault-steps N --checkpoint-every K --checkpoint-dir DIR\n"
      "                      resilient training timeline: N steps with a\n"
      "                      checkpoint every K (persisted to DIR when set)\n"
      "  --retries N         bounded retry budget (restarts, step attempts)\n"
      "  --step-timeout S    per-step attempt timeout for `caraml run`\n"
      "exit code is nonzero when the run (or any workpackage) ends failed;\n"
      "the manifest line is still written with status/fault annotations.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace caraml;
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    // Fail fast on a malformed CARAML_NUM_THREADS even for subcommands that
    // never touch the pool, so a typo is never silently ignored.
    ThreadPool::parse_env_threads(std::getenv("CARAML_NUM_THREADS"));
    if (command == "systems") return cmd_systems();
    if (command == "run") return cmd_run(args);
    if (command == "llm") return cmd_llm(args);
    if (command == "resnet") return cmd_resnet(args);
    if (command == "inference") return cmd_inference(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "analyse-trace") return cmd_analyse_trace(args);
    if (command == "chaos") return cmd_chaos(args);
    if (command == "tts") return cmd_tts(args);
    if (command == "combine") return cmd_combine(args);
    if (command == "export") return cmd_export(args);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
    std::cerr << "caraml: unknown command '" << command << "'\n";
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "caraml: " << e.what() << "\n";
    return 1;
  }
}
