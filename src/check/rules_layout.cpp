// layout-layer lint rules: static analysis of `layouts:` manifests.
//
// A layout manifest declares candidate TP x PP x DP layouts of LLM training
// jobs over calibrated systems. For every entry the analyzer derives, in
// closed form, the per-device memory footprint at scale, per-iteration
// communication volume and exposed time per link class, pipeline-schedule
// validity, and power-cap feasibility — then ranks the feasible layouts by
// predicted iteration time (layout/predicted-* info rules). The formulas are
// the sim/layout_analytic.hpp hooks the simulator itself runs on, so `caraml
// lint --strict` rejects exactly the layouts a simulation would reject.
#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/layout_model.hpp"
#include "check/lint.hpp"
#include "par/pipeline.hpp"
#include "topo/spec_yaml.hpp"

namespace caraml::check {

namespace {

struct AnalyzedEntry {
  LayoutSpec spec;
  LayoutAnalysis analysis;
  yaml::Mark mark;
};

class LayoutLinter {
 public:
  LayoutLinter(const yaml::Node& root, const std::string& file,
               DiagnosticList& diags)
      : root_(root), file_(file), diags_(diags) {}

  void run() {
    load_calibration();
    const yaml::NodePtr layouts = root_.find("layouts");
    if (!layouts || !layouts->is_sequence()) {
      diags_.report("yaml/type-mismatch",
                    loc(layouts ? layouts->mark() : root_.mark()),
                    "'layouts' must be a sequence of layout entries");
      return;
    }
    std::vector<AnalyzedEntry> analyzed;
    for (std::size_t i = 0; i < layouts->items().size(); ++i) {
      if (auto entry = lint_entry(*layouts->item(i), i)) {
        analyzed.push_back(std::move(*entry));
      }
    }
    rank(analyzed);
  }

 private:
  SourceLocation loc(const yaml::Mark& mark) const {
    return SourceLocation::at(file_, mark);
  }

  void load_calibration() {
    const yaml::NodePtr calibration = root_.find("calibration");
    if (!calibration) return;
    if (!calibration->is_scalar()) {
      diags_.report("yaml/type-mismatch", loc(calibration->mark()),
                    "'calibration' must be a file path");
      return;
    }
    namespace fs = std::filesystem;
    fs::path path(calibration->as_string());
    if (path.is_relative()) {
      path = fs::path(file_).parent_path() / path;
    }
    try {
      const topo::SpecTable table = topo::load_spec_table_file(path.string());
      for (const auto& spec : table.systems) {
        calibrated_[spec.jube_tag] = spec;
      }
    } catch (const Error& e) {
      diags_.report("yaml/parse-error", loc(calibration->mark()),
                    "calibration table '" + calibration->as_string() +
                        "': " + e.what());
    }
  }

  /// Lints one entry; returns the analyzed layout when it is valid (so it
  /// participates in ranking), nullopt otherwise.
  std::optional<AnalyzedEntry> lint_entry(const yaml::Node& entry,
                                          std::size_t index) {
    if (!entry.is_map()) {
      diags_.report("yaml/type-mismatch", loc(entry.mark()),
                    "layout entry must be a mapping");
      return std::nullopt;
    }
    LayoutSpec spec;
    spec.name = entry.get_or("name", "layout" + std::to_string(index));

    const std::string system = entry.get_or("system", "");
    if (system.empty()) {
      diags_.report("layout/invalid", loc(entry.mark()),
                    spec.name + ": entry declares no 'system'");
      return std::nullopt;
    }
    if (const auto it = calibrated_.find(system); it != calibrated_.end()) {
      spec.node = it->second;
    } else if (topo::SystemRegistry::instance().has_tag(system)) {
      spec.node = topo::SystemRegistry::instance().by_tag(system);
    } else {
      diags_.report("layout/invalid", loc(entry.mark()),
                    spec.name + ": system '" + system +
                        "' is neither in the calibration table nor the "
                        "built-in registry");
      return std::nullopt;
    }

    // Optional training precision: bf16 (the paper's mixed-precision default)
    // or fp32 — drives the memory model's bytes-per-value, the comm-volume
    // derivations, and the tensor-peak scale, exactly as `caraml llm --dtype`.
    try {
      spec.model = decode_gpt_model(entry.get_or("model", "800M"),
                                    entry.get_or("dtype", "bf16"));
    } catch (const DecodeProblem& problem) {
      diags_.report("layout/invalid", loc(entry.mark()),
                    spec.name + ": " + problem.what());
      return std::nullopt;
    }

    try {
      spec.tensor_parallel = static_cast<int>(entry.get_int_or("tp", 1));
      spec.pipeline_parallel = static_cast<int>(entry.get_int_or("pp", 1));
      spec.data_parallel = static_cast<int>(entry.get_int_or("dp", 1));
      spec.micro_batch = entry.get_int_or("micro_batch", 1);
      spec.global_batch = entry.get_int_or(
          "global_batch",
          spec.micro_batch * std::max(1, spec.data_parallel));
      if (entry.get_bool_or("recompute", false)) {
        spec.model.activation_recompute = true;
      }
    } catch (const ParseError& e) {
      diags_.report("yaml/type-mismatch", loc(entry.mark()),
                    spec.name + ": " + e.what());
      return std::nullopt;
    }

    if (!lint_schedule(entry, spec)) return std::nullopt;

    const LayoutAnalysis analysis = analyze_layout(spec);
    if (!analysis.valid) {
      diags_.report("layout/invalid", loc(entry.mark()),
                    spec.name + ": " + analysis.invalid_reason);
      return std::nullopt;
    }
    for (const LayoutFinding& finding : layout_findings(spec, analysis)) {
      diags_.report(finding.rule, loc(entry.mark()), finding.message);
    }
    return AnalyzedEntry{spec, analysis, entry.mark()};
  }

  /// Parses `schedule:` (named or custom) and runs the custom-slot validator.
  /// Returns false only on a malformed schedule node (the entry is dropped);
  /// schedule *defects* are reported but keep the entry analyzable.
  bool lint_schedule(const yaml::Node& entry, LayoutSpec& spec) {
    const yaml::NodePtr schedule = entry.find("schedule");
    if (!schedule) return true;  // default 1F1B
    if (schedule->is_scalar()) {
      const std::string kind = schedule->as_string();
      if (kind == "gpipe") {
        spec.schedule = LayoutSchedule::kGpipe;
      } else if (kind == "1f1b") {
        spec.schedule = LayoutSchedule::kOneFOneB;
      } else {
        diags_.report("yaml/type-mismatch", loc(schedule->mark()),
                      spec.name + ": schedule '" + kind +
                          "' is not gpipe, 1f1b, or a custom slot mapping");
        return false;
      }
      return true;
    }
    if (!schedule->is_map()) {
      diags_.report("yaml/type-mismatch", loc(schedule->mark()),
                    spec.name +
                        ": 'schedule' must be gpipe, 1f1b, or a custom slot "
                        "mapping");
      return false;
    }

    // Custom schedule: explicit slot timeline, validated structurally.
    par::PipelineSchedule custom;
    try {
      custom.num_stages = static_cast<int>(
          schedule->get_int_or("stages", spec.pipeline_parallel));
      custom.num_micro = static_cast<int>(schedule->get_int_or(
          "micro",
          spec.global_batch / std::max<std::int64_t>(
                                  1, spec.micro_batch * spec.data_parallel)));
      const double backward_cost =
          schedule->get_double_or("backward_cost", 2.0);
      const yaml::NodePtr slots = schedule->find("slots");
      if (!slots || !slots->is_sequence()) {
        diags_.report("yaml/type-mismatch",
                      loc(slots ? slots->mark() : schedule->mark()),
                      spec.name +
                          ": custom schedule needs a 'slots' sequence of "
                          "{stage, micro, forward, time} entries");
        return false;
      }
      for (const auto& slot_node : slots->items()) {
        if (!slot_node->is_map()) {
          diags_.report("yaml/type-mismatch", loc(slot_node->mark()),
                        spec.name + ": schedule slot must be a mapping");
          return false;
        }
        par::PipelineSlot slot;
        slot.stage = static_cast<int>(slot_node->get_int_or("stage", 0));
        slot.micro = static_cast<int>(slot_node->get_int_or("micro", 0));
        slot.forward = slot_node->get_bool_or("forward", true);
        slot.time = static_cast<int>(slot_node->get_int_or("time", 0));
        custom.slots.push_back(slot);
      }
      if (custom.num_stages < 1 || custom.num_micro < 1 ||
          backward_cost <= 0.0) {
        diags_.report("yaml/type-mismatch", loc(schedule->mark()),
                      spec.name +
                          ": custom schedule needs stages >= 1, micro >= 1 "
                          "and backward_cost > 0");
        return false;
      }
      for (const auto& issue :
           par::validate_pipeline_schedule(custom, backward_cost)) {
        diags_.report(schedule_rule(issue.kind), loc(schedule->mark()),
                      spec.name + ": " + issue.message);
      }
    } catch (const ParseError& e) {
      diags_.report("yaml/type-mismatch", loc(schedule->mark()),
                    spec.name + ": " + e.what());
      return false;
    }
    return true;
  }

  static std::string schedule_rule(par::ScheduleIssue::Kind kind) {
    switch (kind) {
      case par::ScheduleIssue::Kind::kOverlap:
        return "layout/schedule-overlap";
      case par::ScheduleIssue::Kind::kStarved:
        return "layout/schedule-starved";
      case par::ScheduleIssue::Kind::kMissingSlot:
      case par::ScheduleIssue::Kind::kDependency:
        break;
    }
    return "layout/schedule-deadlock";
  }

  /// Rank the feasible (valid, non-OOM) layouts by predicted iteration time
  /// and emit the ranked layout/predicted-time info per entry.
  void rank(const std::vector<AnalyzedEntry>& analyzed) {
    std::vector<const AnalyzedEntry*> feasible;
    for (const auto& entry : analyzed) {
      if (!entry.analysis.prediction.oom) feasible.push_back(&entry);
    }
    std::stable_sort(feasible.begin(), feasible.end(),
                     [](const AnalyzedEntry* a, const AnalyzedEntry* b) {
                       return a->analysis.prediction.iteration_time_s <
                              b->analysis.prediction.iteration_time_s;
                     });
    for (std::size_t i = 0; i < feasible.size(); ++i) {
      diags_.report(
          "layout/predicted-time", loc(feasible[i]->mark),
          predicted_time_message(feasible[i]->spec, feasible[i]->analysis) +
              ", rank " + std::to_string(i + 1) + "/" +
              std::to_string(feasible.size()));
    }
  }

  const yaml::Node& root_;
  const std::string& file_;
  DiagnosticList& diags_;
  std::map<std::string, topo::NodeSpec> calibrated_;
};

}  // namespace

void lint_layouts(const yaml::Node& root, const std::string& file,
                  DiagnosticList& diags) {
  LayoutLinter(root, file, diags).run();
}

}  // namespace caraml::check
