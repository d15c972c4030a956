// Static TP x PP x DP layout analysis shared by the `caraml lint` layout/*
// rules (rules_layout.cpp for `layouts:` files, rules_jube.cpp for llm_train
// workpackages) and the `caraml run --skip-doomed` gate, plus the one
// decoder per train action that the JUBE actions, the `caraml llm`/`resnet`
// flags, lint and the gate all read a workpackage through.
//
// Everything here is closed-form: the analysis wraps the same analytic cost
// hooks (sim/layout_analytic.hpp) the simulator's hot path runs on, so a
// 10k+-device layout analyzes in microseconds and cannot drift from what a
// simulation would measure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jube/jube.hpp"
#include "models/gpt_cost.hpp"
#include "models/resnet_cost.hpp"
#include "sim/layout_analytic.hpp"
#include "topo/specs.hpp"
#include "util/error.hpp"

namespace caraml::check {

/// Pipeline schedule the layout trains under; decides how many micro-batches
/// of activations are simultaneously in flight per stage.
enum class LayoutSchedule { kGpipe, kOneFOneB };

/// One candidate layout to analyze.
struct LayoutSpec {
  std::string name;      ///< for messages; may be empty (jube cells)
  topo::NodeSpec node;   ///< resolved system (registry or calibration file)
  models::GptConfig model;
  int tensor_parallel = 1;
  int pipeline_parallel = 1;
  int data_parallel = 1;
  std::int64_t micro_batch = 1;
  std::int64_t global_batch = 1;
  LayoutSchedule schedule = LayoutSchedule::kOneFOneB;

  int num_devices() const {
    return tensor_parallel * pipeline_parallel * data_parallel;
  }
};

struct LayoutAnalysis {
  /// False when the layout cannot run at all (divisibility, node packing, a
  /// link the layout needs is missing, non-GPU system); `invalid_reason`
  /// explains. All other fields are meaningful only when valid.
  bool valid = false;
  std::string invalid_reason;

  int devices_per_node = 0;
  int num_nodes = 0;

  /// Per-iteration memory/time/power/comm prediction (the analytic mirror of
  /// core run_llm_gpu's task graph).
  sim::LlmPrediction prediction;

  /// Schedule-dependent activation pressure: GPipe keeps all m micro-batches
  /// of stage activations alive until the backward phase; 1F1B at most
  /// min(p, m). `inflight_bytes` is the footprint with that multiplier.
  double inflight_factor = 1.0;
  double inflight_bytes = 0.0;
  bool activation_pressure = false;  ///< fits at rest, not in flight

  /// Exposed communication exceeds compute time per iteration.
  bool comm_bound = false;

  /// Analytic bubble-fraction lower bound (p - 1)/(m + p - 1); 0 when pp==1.
  double bubble_lower_bound = 0.0;

  /// Sustained power during the compute phase vs calibrated caps
  /// (DeviceSpec::power_cap_watts / NodeSpec::node_power_cap_watts; a cap of
  /// 0 means uncapped).
  double sustained_device_power_w = 0.0;
  double predicted_node_power_w = 0.0;
  bool device_power_infeasible = false;
  bool node_power_infeasible = false;
};

LayoutAnalysis analyze_layout(const LayoutSpec& spec);

/// One lint finding derived from an analysis: rule id + message body.
struct LayoutFinding {
  std::string rule;
  std::string message;
};

/// "system TAG model 13B tp=4 pp=8 dp=16" (prefixed with `name: ` if set).
std::string layout_label(const LayoutSpec& spec);

/// The non-ranked findings for one *valid* analysis: layout/oom,
/// layout/activation-pressure, layout/comm-bound, layout/power-infeasible,
/// layout/schedule-bubble, layout/predicted-energy and
/// layout/predicted-oom-margin. (layout/invalid and the ranked
/// layout/predicted-time are the caller's responsibility.)
std::vector<LayoutFinding> layout_findings(const LayoutSpec& spec,
                                           const LayoutAnalysis& analysis);

/// Message body for the ranked layout/predicted-time info; the caller
/// appends ", rank k/N".
std::string predicted_time_message(const LayoutSpec& spec,
                                   const LayoutAnalysis& analysis);

// --- run-setting decoders ---------------------------------------------------

/// Why a run setting does not decode: the lint rule it falls under and the
/// context key it concerns; what() says what is wrong with the value.
class DecodeProblem : public InvalidArgument {
 public:
  DecodeProblem(std::string rule, std::string key, const std::string& what)
      : InvalidArgument(what), rule(std::move(rule)), key(std::move(key)) {}
  std::string rule;
  std::string key;
};

/// A GPT preset tag at a training dtype; throws DecodeProblem on key "model"
/// or "dtype".
models::GptConfig decode_gpt_model(const std::string& tag,
                                   const std::string& dtype = "bf16");

/// llm_train: system (A100), global_batch (256), micro_batch (4), devices
/// (-1 = the full node), tp (1), pp (1), model (800M), dtype (bf16).
struct LlmTrain {
  std::string system;
  std::string model;
  int devices = -1;
  /// Node, model at the decoded dtype, tp, pp, batches, and the derived
  /// dp = devices / (tp x pp) — 0 when that does not divide.
  LayoutSpec layout;

  int num_devices() const {
    return devices > 0 ? devices : layout.node.devices_per_node;
  }
};

/// resnet_train: system (A100), global_batch (256), devices (1), variant
/// (resnet50), synthetic (false).
struct ResnetTrain {
  std::string system;
  std::string variant_tag;
  models::ResNetVariant variant = models::ResNetVariant::kResNet50;
  std::int64_t global_batch = 256;
  int devices = 1;
  bool synthetic = false;
};

/// Decode a workpackage context, ${...}-substituting each value read (an
/// unresolved reference throws jube's Error). Throws the first problem:
/// sim/unknown-system, or yaml/type-mismatch on a non-integer, an unknown
/// model or variant tag, or a dtype that is not a training precision.
LlmTrain decode_llm_train(const jube::Context& context);
ResnetTrain decode_resnet_train(const jube::Context& context);

/// What dooms a decoded cell on a GPU system, in lint order:
/// sim/invalid-layout, sim/static-oom, then (llm_train) layout/invalid for
/// node packing and links. Empty when it can run or the system is no GPU.
/// `analysis` receives the llm_train layout analysis, if one ran.
std::vector<LayoutFinding> doom_findings(const LlmTrain& cell,
                                         LayoutAnalysis* analysis = nullptr);
std::vector<LayoutFinding> doom_findings(const ResnetTrain& cell);

/// Static gate for `caraml run --skip-doomed`: "" means run the workpackage;
/// otherwise why it is statically doomed (doom_findings: invalid layout or
/// certain OOM). `actions` are the workpackage's active step actions. Never
/// throws: a context that does not decode runs, and fails as without the
/// gate.
std::string workpackage_doom_reason(const jube::Context& context,
                                    const std::vector<std::string>& actions);

}  // namespace caraml::check
