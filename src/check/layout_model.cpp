#include "check/layout_model.hpp"

#include <algorithm>
#include <sstream>

#include "par/pipeline.hpp"
#include "sim/power_model.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace caraml::check {

namespace {

double gib(double bytes) { return bytes / (1024.0 * 1024.0 * 1024.0); }

std::string fmt_fixed(double value, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << value;
  return os.str();
}

std::string fmt_gib(double bytes) { return fmt_fixed(gib(bytes), 1) + " GiB"; }

std::string fmt_ms(double seconds) {
  return fmt_fixed(seconds * 1000.0, 1) + " ms";
}

std::string fmt_pct(double fraction) {
  return fmt_fixed(fraction * 100.0, 1) + "%";
}

std::string system_tag(const topo::NodeSpec& node) {
  return node.jube_tag.empty() ? node.display_name : node.jube_tag;
}

LayoutAnalysis invalid(std::string why) {
  LayoutAnalysis analysis;
  analysis.invalid_reason = std::move(why);
  return analysis;
}

}  // namespace

std::string layout_label(const LayoutSpec& spec) {
  std::string label = spec.name.empty() ? std::string() : spec.name + ": ";
  label += "system " + system_tag(spec.node) + " model " + spec.model.name +
           " tp=" + std::to_string(spec.tensor_parallel) +
           " pp=" + std::to_string(spec.pipeline_parallel) +
           " dp=" + std::to_string(spec.data_parallel);
  return label;
}

LayoutAnalysis analyze_layout(const LayoutSpec& spec) {
  const int tp = spec.tensor_parallel;
  const int pp = spec.pipeline_parallel;
  const int dp = spec.data_parallel;
  if (spec.node.device.arch != topo::ArchClass::kGpuSimd) {
    return invalid("system " + system_tag(spec.node) +
                   " is not a GPU system; layout analysis covers GPU "
                   "training");
  }
  if (tp < 1 || pp < 1 || dp < 1) {
    return invalid("tp/pp/dp must all be >= 1 (got tp=" + std::to_string(tp) +
                   " pp=" + std::to_string(pp) + " dp=" + std::to_string(dp) +
                   ")");
  }
  if (spec.micro_batch <= 0 || spec.global_batch <= 0) {
    return invalid("micro/global batch must be positive");
  }
  if (spec.global_batch % (spec.micro_batch * dp) != 0) {
    return invalid("global batch " + std::to_string(spec.global_batch) +
                   " is not divisible by micro-batch x data-parallel (" +
                   std::to_string(spec.micro_batch) + " x " +
                   std::to_string(dp) + ")");
  }

  LayoutAnalysis analysis;
  const int n = spec.num_devices();
  if (spec.node.devices_per_node <= 0) {
    return invalid("system " + system_tag(spec.node) +
                   " declares no devices per node");
  }
  if (n <= spec.node.devices_per_node) {
    analysis.devices_per_node = n;
    analysis.num_nodes = 1;
  } else if (n % spec.node.devices_per_node == 0) {
    analysis.devices_per_node = spec.node.devices_per_node;
    analysis.num_nodes = n / spec.node.devices_per_node;
  } else {
    return invalid(std::to_string(n) + " devices do not pack into " +
                   std::to_string(spec.node.devices_per_node) +
                   "-device nodes of " + system_tag(spec.node));
  }
  if (analysis.num_nodes > 1 && spec.node.inter_node.bandwidth <= 0.0) {
    return invalid("layout needs " + std::to_string(analysis.num_nodes) +
                   " nodes but " + system_tag(spec.node) +
                   " has no inter-node interconnect calibrated");
  }
  if ((tp > 1 || pp > 1 || (dp > 1 && analysis.devices_per_node > 1)) &&
      spec.node.peer_link.bandwidth <= 0.0) {
    return invalid("layout needs the intra-node peer link but " +
                   system_tag(spec.node) + " has none calibrated");
  }

  sim::LlmLayoutCost cost;
  cost.model = spec.model;
  cost.tensor_parallel = tp;
  cost.pipeline_parallel = pp;
  cost.data_parallel = dp;
  cost.micro_batch = spec.micro_batch;
  cost.global_batch = spec.global_batch;
  cost.devices_per_node = analysis.devices_per_node;
  cost.num_nodes = analysis.num_nodes;
  try {
    analysis.prediction = sim::predict_llm_iteration(spec.node, cost);
  } catch (const Error& e) {
    return invalid(e.what());
  }
  analysis.valid = true;

  // Schedule-dependent in-flight activation pressure. total_bytes() holds
  // one micro-batch of activations; the pipeline schedule multiplies that.
  models::GptMemoryModel memory;
  memory.config = spec.model;
  memory.tensor_parallel = tp;
  memory.pipeline_parallel = pp;
  memory.data_parallel = dp;
  memory.micro_batch = static_cast<int>(spec.micro_batch);
  const std::int64_t n_micro = analysis.prediction.n_micro;
  if (pp <= 1) {
    analysis.inflight_factor = 1.0;
  } else if (spec.schedule == LayoutSchedule::kGpipe) {
    analysis.inflight_factor = static_cast<double>(n_micro);
  } else {
    analysis.inflight_factor =
        static_cast<double>(std::min<std::int64_t>(pp, n_micro));
  }
  analysis.inflight_bytes =
      memory.model_state_bytes() +
      memory.activation_bytes() * analysis.inflight_factor +
      memory.workspace_bytes();
  analysis.activation_pressure =
      !analysis.prediction.oom &&
      analysis.inflight_bytes > spec.node.device.mem_capacity_bytes;

  analysis.comm_bound =
      analysis.prediction.exposed_comm_s >
      static_cast<double>(n_micro) * analysis.prediction.t_compute_s;

  if (pp > 1) {
    analysis.bubble_lower_bound =
        par::pipeline_bubble_lower_bound(pp, static_cast<int>(n_micro));
  }

  // Power feasibility: the compute phase's sustained draw vs the calibrated
  // caps (0 = uncapped). Node draw assumes every device of the node runs the
  // same schedule — true for the homogeneous layouts modeled here.
  analysis.sustained_device_power_w =
      sim::busy_power_watts(spec.node.device, analysis.prediction.power_util);
  analysis.device_power_infeasible =
      spec.node.device.power_cap_watts > 0.0 &&
      analysis.sustained_device_power_w > spec.node.device.power_cap_watts;
  analysis.predicted_node_power_w =
      analysis.sustained_device_power_w * analysis.devices_per_node;
  analysis.node_power_infeasible =
      spec.node.node_power_cap_watts > 0.0 &&
      analysis.predicted_node_power_w > spec.node.node_power_cap_watts;
  return analysis;
}

std::vector<LayoutFinding> layout_findings(const LayoutSpec& spec,
                                           const LayoutAnalysis& analysis) {
  std::vector<LayoutFinding> findings;
  if (!analysis.valid) return findings;
  const std::string label = layout_label(spec);
  const sim::LlmPrediction& p = analysis.prediction;
  const double capacity = spec.node.device.mem_capacity_bytes;

  if (p.oom) {
    findings.push_back(
        {"layout/oom",
         label + " needs " + fmt_gib(p.memory_per_device_bytes) +
             " per device but " + spec.node.device.name + " has " +
             fmt_gib(capacity) + " (margin " + fmt_gib(p.memory_margin_bytes) +
             ")"});
  } else if (analysis.activation_pressure) {
    findings.push_back(
        {"layout/activation-pressure",
         label + " fits at rest but the " +
             (spec.schedule == LayoutSchedule::kGpipe ? "GPipe" : "1F1B") +
             " schedule keeps " + fmt_fixed(analysis.inflight_factor, 0) +
             " micro-batches of activations in flight: " +
             fmt_gib(analysis.inflight_bytes) + " > " + fmt_gib(capacity)});
  }
  findings.push_back(
      {"layout/predicted-oom-margin",
       label + " footprint " + fmt_gib(p.memory_per_device_bytes) + " of " +
           fmt_gib(capacity) + " HBM (margin " +
           fmt_gib(p.memory_margin_bytes) + ")"});

  if (analysis.comm_bound) {
    findings.push_back(
        {"layout/comm-bound",
         label + " exposes " + fmt_ms(p.exposed_comm_s) +
             " of communication vs " +
             fmt_ms(static_cast<double>(p.n_micro) * p.t_compute_s) +
             " of compute per iteration — the layout is communication-bound"});
  }
  if (analysis.bubble_lower_bound > 0.0) {
    findings.push_back(
        {"layout/schedule-bubble",
         label + " pipeline bubble lower bound " +
             fmt_pct(analysis.bubble_lower_bound) + " (" +
             std::to_string(spec.pipeline_parallel) + " stages, " +
             std::to_string(p.n_micro) + " micro-batches)"});
  }
  if (analysis.device_power_infeasible) {
    findings.push_back(
        {"layout/power-infeasible",
         label + " predicted sustained device power " +
             fmt_fixed(analysis.sustained_device_power_w, 0) +
             " W exceeds the " +
             fmt_fixed(spec.node.device.power_cap_watts, 0) +
             " W device cap — the layout throttles"});
  }
  if (analysis.node_power_infeasible) {
    findings.push_back(
        {"layout/power-infeasible",
         label + " predicted node power " +
             fmt_fixed(analysis.predicted_node_power_w, 0) + " W (" +
             std::to_string(analysis.devices_per_node) + " devices) exceeds "
             "the " +
             fmt_fixed(spec.node.node_power_cap_watts, 0) +
             " W node cap — the layout throttles"});
  }
  if (!p.oom) {
    findings.push_back(
        {"layout/predicted-energy",
         label + " predicted " + fmt_fixed(p.energy_per_device_j, 0) +
             " J per iteration per device (avg " + fmt_fixed(p.avg_power_w, 0) +
             " W)"});
  }
  return findings;
}

std::string predicted_time_message(const LayoutSpec& spec,
                                   const LayoutAnalysis& analysis) {
  const sim::LlmPrediction& p = analysis.prediction;
  return layout_label(spec) + " predicted iteration " +
         fmt_ms(p.iteration_time_s) + " (" +
         fmt_fixed(p.tokens_per_s_per_device, 0) + " tok/s/device, MFU " +
         fmt_pct(p.mfu) + ")";
}

namespace {

/// Reads a workpackage context the way the run does: ${...}-substituted
/// values with per-key defaults. A bad value throws its DecodeProblem.
struct ContextReader {
  const jube::Context& context;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = context.find(key);
    if (it == context.end()) return fallback;
    return jube::substitute_context(it->second, context);
  }

  std::int64_t get_int(const std::string& key,
                       const std::string& fallback) const {
    const std::string raw = get(key, fallback);
    try {
      return str::parse_int(raw);
    } catch (const ParseError&) {
      throw DecodeProblem("yaml/type-mismatch", key,
                          "parameter '" + key + "' value '" + raw +
                              "' is not an integer");
    }
  }

  /// The "system" value, which must be a registry tag.
  std::string system() const {
    const std::string tag = get("system", "A100");
    if (!topo::SystemRegistry::instance().has_tag(tag)) {
      throw DecodeProblem(
          "sim/unknown-system", "system",
          "system '" + tag + "' is not in the built-in registry");
    }
    return tag;
  }
};

/// The value `tag` names in a tag table; the problem lists every tag.
template <typename Value, std::size_t N>
Value decode_tag(const std::pair<const char*, Value> (&table)[N],
                 const std::string& key, const std::string& tag) {
  std::string tags;
  for (const auto& [name, value] : table) {
    if (tag == name) return value;
    tags += (tags.empty() ? "" : "/") + std::string(name);
  }
  throw DecodeProblem("yaml/type-mismatch", key,
                      key + " '" + tag + "' is not one of " + tags);
}

bool gpu(const topo::NodeSpec& node) {
  return node.device.arch == topo::ArchClass::kGpuSimd;
}

}  // namespace

models::GptConfig decode_gpt_model(const std::string& tag,
                                   const std::string& dtype) {
  models::GptConfig model = decode_tag(models::kGptPresets, "model", tag)();
  const auto precision = tensor::dtype_from_string(dtype);
  if (!precision || !models::dtype_cost(*precision).trainable) {
    throw DecodeProblem("yaml/type-mismatch", "dtype",
                        "dtype '" + dtype +
                            "' is not bf16 or fp32 (int8 is inference-only)");
  }
  model.dtype = *precision;
  return model;
}

LlmTrain decode_llm_train(const jube::Context& context) {
  const ContextReader in{context};
  LlmTrain cell;
  LayoutSpec& layout = cell.layout;
  cell.system = in.system();
  layout.global_batch = in.get_int("global_batch", "256");
  layout.micro_batch = in.get_int("micro_batch", "4");
  cell.devices = static_cast<int>(in.get_int("devices", "-1"));
  layout.tensor_parallel = static_cast<int>(in.get_int("tp", "1"));
  layout.pipeline_parallel = static_cast<int>(in.get_int("pp", "1"));
  cell.model = in.get("model", "800M");
  layout.model = decode_gpt_model(cell.model, in.get("dtype", "bf16"));
  layout.node = topo::SystemRegistry::instance().by_tag(cell.system);
  const int tp = layout.tensor_parallel;
  const int pp = layout.pipeline_parallel;
  const int n = cell.num_devices();
  layout.data_parallel =
      tp > 0 && pp > 0 && n % (tp * pp) == 0 ? n / (tp * pp) : 0;
  return cell;
}

ResnetTrain decode_resnet_train(const jube::Context& context) {
  const ContextReader in{context};
  ResnetTrain cell;
  cell.system = in.system();
  cell.global_batch = in.get_int("global_batch", "256");
  cell.devices = static_cast<int>(in.get_int("devices", "1"));
  cell.variant_tag = in.get("variant", "resnet50");
  cell.variant =
      decode_tag(models::kResNetVariants, "variant", cell.variant_tag);
  cell.synthetic = in.get("synthetic", "false") == "true";
  return cell;
}

std::vector<LayoutFinding> doom_findings(const LlmTrain& cell,
                                         LayoutAnalysis* analysis) {
  const LayoutSpec& layout = cell.layout;
  if (!gpu(layout.node)) return {};
  const std::string where = "system " + cell.system + ": ";
  const int dp = layout.data_parallel;
  if (dp == 0) {
    return {{"sim/invalid-layout",
             where + std::to_string(cell.num_devices()) +
                 " device(s) not divisible by tp x pp = " +
                 std::to_string(layout.tensor_parallel) + " x " +
                 std::to_string(layout.pipeline_parallel)}};
  }
  if (layout.micro_batch <= 0 || layout.global_batch <= 0 ||
      layout.global_batch % (layout.micro_batch * dp) != 0) {
    return {{"sim/invalid-layout",
             where + "global batch " + std::to_string(layout.global_batch) +
                 " not divisible by micro-batch x data-parallel (" +
                 std::to_string(layout.micro_batch) + " x " +
                 std::to_string(dp) + ")"}};
  }

  std::vector<LayoutFinding> findings;
  models::GptMemoryModel memory;
  memory.config = layout.model;
  memory.tensor_parallel = layout.tensor_parallel;
  memory.pipeline_parallel = layout.pipeline_parallel;
  memory.data_parallel = dp;
  memory.micro_batch = static_cast<int>(layout.micro_batch);
  const double need = memory.total_bytes();
  const double capacity = layout.node.device.mem_capacity_bytes;
  if (need > capacity) {
    findings.push_back(
        {"sim/static-oom",
         "llm_train on " + cell.system + " (model " + cell.model +
             ", global batch " + std::to_string(layout.global_batch) +
             ", micro " + std::to_string(layout.micro_batch) + ", dp " +
             std::to_string(dp) + ") needs " + fmt_gib(need) +
             " per device but " + layout.node.device.name + " has " +
             fmt_gib(capacity)});
  }
  // Node packing and links: defects the simulator would only hit at run time.
  const LayoutAnalysis result = analyze_layout(layout);
  if (!result.valid) {
    findings.push_back(
        {"layout/invalid", "llm_train: " + result.invalid_reason});
  }
  if (analysis != nullptr) *analysis = result;
  return findings;
}

std::vector<LayoutFinding> doom_findings(const ResnetTrain& cell) {
  const topo::NodeSpec& node =
      topo::SystemRegistry::instance().by_tag(cell.system);
  if (!gpu(node)) return {};
  if (cell.devices <= 0 || cell.global_batch <= 0 ||
      cell.global_batch % cell.devices != 0) {
    return {{"sim/invalid-layout",
             "system " + cell.system + ": global batch " +
                 std::to_string(cell.global_batch) + " not divisible by " +
                 std::to_string(cell.devices) + " device(s)"}};
  }
  const double need = models::ResNetModel::build(cell.variant)
                          .device_memory(cell.global_batch / cell.devices)
                          .total();
  const double capacity = node.device.mem_capacity_bytes;
  if (need <= capacity) return {};
  return {{"sim/static-oom",
           "resnet_train on " + cell.system + " (" + cell.variant_tag +
               ", global batch " + std::to_string(cell.global_batch) + ", " +
               std::to_string(cell.devices) + " device(s)) needs " +
               fmt_gib(need) + " per device but " + node.device.name +
               " has " + fmt_gib(capacity)}};
}

std::string workpackage_doom_reason(const jube::Context& context,
                                    const std::vector<std::string>& actions) {
  for (const std::string& action : actions) {
    std::vector<LayoutFinding> findings;
    try {
      if (action == "llm_train") {
        findings = doom_findings(decode_llm_train(context));
      }
      if (action == "resnet_train") {
        findings = doom_findings(decode_resnet_train(context));
      }
    } catch (const Error&) {
      continue;  // input errors are the run's to report, not doom
    }
    if (findings.empty()) continue;
    const bool oom = findings.front().rule == "sim/static-oom";
    return action + (oom ? ": static OOM: " : ": invalid layout: ") +
           findings.front().message;
  }
  return "";
}

}  // namespace caraml::check
