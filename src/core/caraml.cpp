#include "core/caraml.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "analysis/analyse.hpp"
#include "check/layout_model.hpp"
#include "fault/fault.hpp"
#include "telemetry/span.hpp"
#include "topo/specs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace caraml::core {

namespace {

std::string context_get(const jube::Context& context, const std::string& key,
                        const std::string& fallback) {
  const auto it = context.find(key);
  return it != context.end() ? it->second : fallback;
}

}  // namespace

LlmRunConfig llm_run_config(const jube::Context& context) {
  const check::LlmTrain cell = check::decode_llm_train(context);
  LlmRunConfig config;
  config.system_tag = cell.system;
  config.model = cell.layout.model;
  config.global_batch = cell.layout.global_batch;
  config.micro_batch = cell.layout.micro_batch;
  config.devices = cell.devices;
  config.tensor_parallel = cell.layout.tensor_parallel;
  config.pipeline_parallel = cell.layout.pipeline_parallel;
  return config;
}

ResnetRunConfig resnet_run_config(const jube::Context& context) {
  const check::ResnetTrain cell = check::decode_resnet_train(context);
  ResnetRunConfig config;
  config.system_tag = cell.system;
  config.variant = cell.variant;
  config.global_batch = cell.global_batch;
  config.devices = cell.devices;
  config.synthetic_data = cell.synthetic;
  return config;
}

bool fault_requested(const jube::Context& context) {
  return !context_get(context, "fault_plan", "").empty() ||
         str::parse_double(context_get(context, "fault_rate", "0")) > 0.0;
}

ResilienceOptions resilience_from_context(const jube::Context& context,
                                          int num_devices) {
  ResilienceOptions options;
  const std::string plan_file = context_get(context, "fault_plan", "");
  if (!plan_file.empty()) {
    options.plan = fault::FaultPlan::from_yaml_file(plan_file);
  } else {
    options.plan = fault::FaultPlan::generate(
        static_cast<std::uint64_t>(
            str::parse_int(context_get(context, "fault_seed", "0"))),
        str::parse_double(context_get(context, "fault_rate", "0")),
        str::parse_double(context_get(context, "fault_horizon_s", "60")),
        std::max(1, num_devices));
  }
  options.retry.seed = options.plan.seed;
  options.retry.max_attempts = static_cast<int>(
      str::parse_int(context_get(context, "fault_retries", "3")));
  options.steps = str::parse_int(context_get(context, "fault_steps", "50"));
  options.checkpoint_every =
      str::parse_int(context_get(context, "checkpoint_every", "10"));
  options.checkpoint_dir = context_get(context, "checkpoint_dir", "");
  return options;
}

namespace {

void append_report(std::ostream& os, const fault::RunReport& report) {
  os << "status: " << report.status << "\n"
     << "fault_fingerprint: " << report.fault_fingerprint << "\n"
     << "fault_events: " << report.fault_events << "\n"
     << "oom_retries: " << report.oom_retries << "\n"
     << "restarts: " << report.restarts << "\n"
     << "checkpoints: " << report.checkpoints_saved << "\n"
     << "steps_replayed: " << report.steps_replayed << "\n";
}

// ---------------------------------------------------------------------------
// Sweep --analyse hook: when the workpackage context carries analyse=1, the
// train actions run their simulation against a local tracer (concurrent
// workpackages must not interleave events in the global one), run the
// bottleneck detectors over the snapshot, and emit the ranked summary as
// output lines the analyse patterns lift into the manifest row.
// ---------------------------------------------------------------------------

bool analyse_requested(const jube::Context& context) {
  return context_get(context, "analyse", "0") == "1";
}

void append_analysis(std::ostream& os, const telemetry::Tracer& tracer) {
  const analysis::AnalysisReport report =
      analysis::analyse(analysis::snapshot(tracer));
  const std::string summary = analysis::bottleneck_summary(report);
  os << "bottlenecks: " << summary << "\n"
     << "top_bottleneck: " << summary.substr(0, summary.find(';')) << "\n";
}

std::string llm_train_action(const jube::Context& context) {
  LlmRunConfig config = llm_run_config(context);
  std::ostringstream os;
  if (config.system_tag == "GC200") {
    // The IPU path only traces through the global tracer; no --analyse hook.
    const IpuLlmResult r = run_llm_ipu(config.global_batch);
    os << "tokens_per_s: " << r.tokens_per_s << "\n"
       << "energy_wh: " << r.energy_per_epoch_wh << "\n"
       << "tokens_per_wh: " << r.tokens_per_wh << "\n";
    return os.str();
  }
  telemetry::Tracer analysis_tracer;
  const bool analyse = analyse_requested(context);
  if (analyse) {
    analysis_tracer.set_enabled(true);
    config.trace_sink = &analysis_tracer;
  }
  if (fault_requested(context)) {
    const int devices_for_plan =
        config.devices > 0
            ? config.devices
            : topo::SystemRegistry::instance().by_tag(config.system_tag)
                  .devices_per_node;
    const ResilientLlmResult rr = run_llm_resilient(
        config, resilience_from_context(context, devices_for_plan));
    append_report(os, rr.report);
    os << "effective_tokens_per_s: " << rr.effective_tokens_per_s_total
       << "\n"
       << "effective_avg_power_w: " << rr.effective_avg_power_per_gpu_w
       << "\n";
    if (!rr.base.oom) {
      os << "tokens_per_s: " << rr.base.tokens_per_s_per_gpu << "\n"
         << "energy_wh: " << rr.base.energy_per_gpu_wh << "\n"
         << "tokens_per_wh: " << rr.base.tokens_per_wh << "\n"
         << "avg_power_w: " << rr.base.avg_power_per_gpu_w << "\n";
      if (analyse) append_analysis(os, analysis_tracer);
    }
    return os.str();
  }
  const LlmRunResult r = run_llm_gpu(config);
  if (r.oom) {
    os << "status: OOM\n";
    return os.str();
  }
  os << "tokens_per_s: " << r.tokens_per_s_per_gpu << "\n"
     << "energy_wh: " << r.energy_per_gpu_wh << "\n"
     << "tokens_per_wh: " << r.tokens_per_wh << "\n"
     << "avg_power_w: " << r.avg_power_per_gpu_w << "\n";
  if (analyse) append_analysis(os, analysis_tracer);
  return os.str();
}

std::string resnet_train_action(const jube::Context& context) {
  ResnetRunConfig config = resnet_run_config(context);
  std::ostringstream os;
  telemetry::Tracer analysis_tracer;
  const bool analyse = analyse_requested(context);
  if (analyse) {
    analysis_tracer.set_enabled(true);
    config.trace_sink = &analysis_tracer;
  }
  if (fault_requested(context)) {
    const ResilientResnetResult rr = run_resnet_resilient(
        config, resilience_from_context(context, std::max(1, config.devices)));
    append_report(os, rr.report);
    os << "effective_images_per_s: " << rr.effective_images_per_s_total
       << "\n"
       << "effective_avg_power_w: " << rr.effective_avg_power_per_device_w
       << "\n";
    if (!rr.base.oom) {
      os << "images_per_s: " << rr.base.images_per_s_total << "\n"
         << "energy_wh: " << rr.base.energy_per_epoch_wh << "\n"
         << "images_per_wh: " << rr.base.images_per_wh << "\n"
         << "avg_power_w: " << rr.base.avg_power_per_device_w << "\n";
      if (analyse) append_analysis(os, analysis_tracer);
    }
    return os.str();
  }
  const ResnetRunResult r = run_resnet(config);
  if (r.oom) {
    os << "status: OOM\n";
    return os.str();
  }
  os << "images_per_s: " << r.images_per_s_total << "\n"
     << "energy_wh: " << r.energy_per_epoch_wh << "\n"
     << "images_per_wh: " << r.images_per_wh << "\n"
     << "avg_power_w: " << r.avg_power_per_device_w << "\n";
  if (analyse) append_analysis(os, analysis_tracer);
  return os.str();
}

/// Harness-turnaround calibration action: sleeps `sleep_ms` wall-clock
/// milliseconds and reports how long it actually slept. The analytic train
/// actions above finish in microseconds, so they cannot exercise (or
/// demonstrate) sweep-level parallelism and caching — this action stands in
/// for a real job's wall time in the sweep smoke config and tests.
std::string harness_sleep_action(const jube::Context& context) {
  const std::int64_t sleep_ms =
      str::parse_int(context_get(context, "sleep_ms", "100"));
  CARAML_CHECK_MSG(sleep_ms >= 0, "sleep_ms must be >= 0");
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  const auto slept = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  std::ostringstream os;
  os << "slept_ms: " << slept.count() << "\n"
     << "status: ok\n";
  return os.str();
}

}  // namespace

void register_caraml_actions(jube::ActionRegistry& registry) {
  registry.register_action("llm_train", llm_train_action);
  registry.register_action("resnet_train", resnet_train_action);
  registry.register_action("harness_sleep", harness_sleep_action);
}

std::vector<jube::Pattern> caraml_patterns() {
  // \b keeps the base metrics from matching inside the "effective_*" lines
  // a resilient run emits ("_" is a word character, so there is no boundary
  // after the prefix).
  return {
      {"tokens_per_s", R"(\btokens_per_s:\s*([0-9.eE+-]+))"},
      {"images_per_s", R"(\bimages_per_s:\s*([0-9.eE+-]+))"},
      {"energy_wh", R"(\benergy_wh:\s*([0-9.eE+-]+))"},
      {"tokens_per_wh", R"(\btokens_per_wh:\s*([0-9.eE+-]+))"},
      {"images_per_wh", R"(\bimages_per_wh:\s*([0-9.eE+-]+))"},
      {"avg_power_w", R"(\bavg_power_w:\s*([0-9.eE+-]+))"},
      {"status", R"(status:\s*(\w+))"},
      {"fault_fingerprint", R"(fault_fingerprint:\s*([0-9a-f]+))"},
      {"fault_events", R"(fault_events:\s*([0-9]+))"},
      {"oom_retries", R"(oom_retries:\s*([0-9]+))"},
      {"restarts", R"(\brestarts:\s*([0-9]+))"},
      {"checkpoints", R"(checkpoints:\s*([0-9]+))"},
      {"steps_replayed", R"(steps_replayed:\s*([0-9]+))"},
      {"effective_tokens_per_s",
       R"(effective_tokens_per_s:\s*([0-9.eE+-]+))"},
      {"effective_images_per_s",
       R"(effective_images_per_s:\s*([0-9.eE+-]+))"},
      {"slept_ms", R"(\bslept_ms:\s*([0-9]+))"},
      {"bottlenecks", R"(\bbottlenecks:\s*(\S+))"},
      {"top_bottleneck", R"(top_bottleneck:\s*(\S+))"},
  };
}

std::vector<SystemSeries> fig2_series() {
  return {
      {"GH200 (JEDI)", "JEDI", -1},   {"GH200 (JRDC)", "GH200", -1},
      {"H100 (JRDC)", "H100", -1},    {"H100 (WestAI)", "WAIH100", -1},
      {"A100", "A100", -1},           {"MI250:GCD", "MI250", 4},
      {"MI250:GPU", "MI250", 8},
  };
}

std::vector<SystemSeries> fig3_series() {
  return {
      {"GH200 (JEDI)", "JEDI", 1},    {"GH200 (JRDC)", "GH200", 1},
      {"H100 (JRDC)", "H100", 1},     {"H100 (WestAI)", "WAIH100", 1},
      {"A100", "A100", 1},            {"MI250:GCD", "MI250", 1},
      {"MI250:GPU", "MI250", 2},
  };
}

namespace {
std::vector<std::int64_t> doubling(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  for (std::int64_t b = lo; b <= hi; b *= 2) out.push_back(b);
  return out;
}
}  // namespace

std::vector<std::int64_t> fig2_batches() { return doubling(16, 4096); }
std::vector<std::int64_t> fig3_batches() { return doubling(16, 2048); }
std::vector<std::int64_t> table2_batches() { return doubling(64, 16384); }
std::vector<std::int64_t> table3_batches() { return doubling(16, 4096); }
std::vector<std::int64_t> fig4_batches() { return doubling(16, 2048); }

std::vector<int> fig4_device_counts(const std::string& tag) {
  const auto& node = topo::SystemRegistry::instance().by_tag(tag);
  std::vector<int> counts;
  for (int d = 1; d <= node.devices_per_node; d *= 2) counts.push_back(d);
  for (int nodes = 2; nodes <= node.max_nodes; nodes *= 2) {
    counts.push_back(nodes * node.devices_per_node);
  }
  return counts;
}

}  // namespace caraml::core
