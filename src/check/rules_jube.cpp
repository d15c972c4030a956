// JUBE-layer lint rules: benchmark script structure, parameter reference
// graph, step depend graph, analyse regexes, tag coverage — plus the static
// workload checks (sim/invalid-layout, sim/static-oom) that predict, from
// the same cost models the simulator uses, which workpackages cannot run
// before a single simulation step executes.
#include <algorithm>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "check/layout_model.hpp"
#include "check/lint.hpp"
#include "jube/jube.hpp"
#include "util/strings.hpp"

namespace caraml::check {

namespace {

struct ParamDecl {
  std::string name;
  std::string tag;
  std::vector<std::string> values;
  std::vector<yaml::Mark> value_marks;  // parallel to values
  yaml::Mark mark;
};

struct StepDecl {
  std::string name;
  std::string action;
  std::string tag;
  std::vector<std::pair<std::string, yaml::Mark>> depends;
  yaml::Mark mark;
};

struct PatternDecl {
  std::string name;
  std::string regex;
  yaml::Mark regex_mark;
  yaml::Mark mark;
};

std::set<std::string> placeholder_names(const std::string& text) {
  std::set<std::string> names;
  std::size_t pos = 0;
  while ((pos = text.find("${", pos)) != std::string::npos) {
    const std::size_t close = text.find('}', pos + 2);
    if (close == std::string::npos) break;
    names.insert(text.substr(pos + 2, close - pos - 2));
    pos = close + 1;
  }
  return names;
}

bool tag_active(const std::string& tag, const std::set<std::string>& tags) {
  if (tag.empty()) return true;
  if (tag.front() == '!') return tags.count(tag.substr(1)) == 0;
  return tags.count(tag) > 0;
}

std::string tag_set_name(const std::set<std::string>& tags) {
  return tags.empty() ? "(no tags)" : "{" + str::join({tags.begin(), tags.end()}, ", ") + "}";
}

/// One expanded workpackage value with the source mark of the parameter
/// value it came from.
struct Binding {
  std::string value;
  yaml::Mark mark;
};
using MarkedContext = std::map<std::string, Binding>;

class JubeLinter {
 public:
  JubeLinter(const yaml::Node& root, const std::string& file,
             const LintOptions& options, DiagnosticList& diags)
      : root_(root), file_(file), options_(options), diags_(diags) {}

  void run() {
    collect();
    check_parameters();
    check_steps();
    check_patterns();
    check_tag_coverage();
    check_workloads();
    emit_layout_findings();
  }

 private:
  SourceLocation loc(const yaml::Mark& mark) const {
    return SourceLocation::at(file_, mark);
  }

  void type_mismatch(const yaml::Node& node, const std::string& what,
                     const std::string& expected) {
    diags_.report("yaml/type-mismatch", loc(node.mark()),
                  what + " must be a " + expected);
  }

  // --- collection ----------------------------------------------------------

  void collect() {
    if (const yaml::NodePtr sets = root_.find("parametersets")) {
      if (!sets->is_sequence()) {
        type_mismatch(*sets, "'parametersets'", "sequence");
        return;
      }
      for (const auto& set : sets->items()) collect_set(*set);
    }
    if (const yaml::NodePtr steps = root_.find("steps")) {
      if (!steps->is_sequence()) {
        type_mismatch(*steps, "'steps'", "sequence");
      } else {
        for (const auto& step : steps->items()) collect_step(*step);
      }
    }
    if (const yaml::NodePtr patterns = root_.find("patterns")) {
      if (!patterns->is_sequence()) {
        type_mismatch(*patterns, "'patterns'", "sequence");
      } else {
        for (const auto& pattern : patterns->items()) collect_pattern(*pattern);
      }
    }
  }

  void collect_set(const yaml::Node& set) {
    if (!set.is_map()) {
      type_mismatch(set, "parameterset entry", "mapping");
      return;
    }
    if (set.get_or("name", "").empty()) {
      diags_.report("jube/missing-name", loc(set.mark()),
                    "parameterset without a 'name'");
    }
    const yaml::NodePtr parameters = set.find("parameters");
    if (!parameters) return;
    if (!parameters->is_sequence()) {
      type_mismatch(*parameters, "'parameters'", "sequence");
      return;
    }
    for (const auto& node : parameters->items()) {
      if (!node->is_map()) {
        type_mismatch(*node, "parameter entry", "mapping");
        continue;
      }
      ParamDecl param;
      param.name = node->get_or("name", "");
      param.tag = node->get_or("tag", "");
      param.mark = node->mark();
      if (param.name.empty()) {
        diags_.report("jube/missing-name", loc(node->mark()),
                      "parameter without a 'name'");
        continue;
      }
      const yaml::NodePtr values = node->find("values");
      if (values && values->is_sequence()) {
        for (const auto& value : values->items()) {
          if (!value->is_scalar()) {
            type_mismatch(*value, "parameter value", "scalar");
            continue;
          }
          param.values.push_back(value->as_string());
          param.value_marks.push_back(value->mark());
        }
      } else if (values && values->is_scalar()) {
        for (const auto& piece : str::split(values->as_string(), ',')) {
          param.values.push_back(str::trim(piece));
          param.value_marks.push_back(values->mark());
        }
      }
      if (param.values.empty()) {
        diags_.report("jube/empty-values", loc(node->mark()),
                      "parameter '" + param.name + "' declares no values");
        continue;
      }
      params_.push_back(std::move(param));
    }
  }

  void collect_step(const yaml::Node& node) {
    if (!node.is_map()) {
      type_mismatch(node, "step entry", "mapping");
      return;
    }
    StepDecl step;
    step.name = node.get_or("name", "");
    step.action = node.get_or("do", step.name);
    step.tag = node.get_or("tag", "");
    step.mark = node.mark();
    if (step.name.empty()) {
      diags_.report("jube/missing-name", loc(node.mark()),
                    "step without a 'name'");
      return;
    }
    if (const yaml::NodePtr deps = node.find("depend")) {
      if (deps->is_sequence()) {
        for (const auto& d : deps->items()) {
          if (d->is_scalar()) step.depends.emplace_back(d->as_string(), d->mark());
        }
      } else if (deps->is_scalar()) {
        step.depends.emplace_back(deps->as_string(), deps->mark());
      } else {
        type_mismatch(*deps, "step 'depend'", "scalar or sequence");
      }
    }
    steps_.push_back(std::move(step));
  }

  void collect_pattern(const yaml::Node& node) {
    if (!node.is_map()) {
      type_mismatch(node, "pattern entry", "mapping");
      return;
    }
    PatternDecl pattern;
    pattern.name = node.get_or("name", "");
    pattern.mark = node.mark();
    if (pattern.name.empty()) {
      diags_.report("jube/missing-name", loc(node.mark()),
                    "pattern without a 'name'");
      return;
    }
    const yaml::NodePtr regex = node.find("regex");
    if (!regex || !regex->is_scalar()) {
      diags_.report("jube/bad-regex", loc(node.mark()),
                    "pattern '" + pattern.name + "' has no 'regex'");
      return;
    }
    pattern.regex = regex->as_string();
    pattern.regex_mark = regex->mark();
    patterns_.push_back(std::move(pattern));
  }

  // --- parameter rules -----------------------------------------------------

  void check_parameters() {
    std::set<std::string> declared;
    for (const auto& param : params_) declared.insert(param.name);

    // Unresolved ${refs} in values.
    for (const auto& param : params_) {
      for (std::size_t i = 0; i < param.values.size(); ++i) {
        for (const auto& ref : placeholder_names(param.values[i])) {
          if (!declared.count(ref)) {
            diags_.report("jube/unresolved-param", loc(param.value_marks[i]),
                          "parameter '" + param.name + "' references ${" +
                              ref + "}, which no parameterset declares");
          }
        }
      }
    }

    // Reference cycles: edges param -> declared params referenced by any of
    // its values. Iterative elimination of reference-free parameters leaves
    // exactly the cyclic core.
    std::map<std::string, std::set<std::string>> refs;
    for (const auto& param : params_) {
      for (const auto& value : param.values) {
        for (const auto& ref : placeholder_names(value)) {
          if (declared.count(ref) && ref != param.name) {
            refs[param.name].insert(ref);
          } else if (ref == param.name) {
            refs[param.name].insert(ref);  // self-cycle
          }
        }
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (auto it = refs.begin(); it != refs.end();) {
        bool all_resolved = true;
        for (const auto& ref : it->second) {
          if (refs.count(ref)) all_resolved = false;
        }
        if (all_resolved) {
          it = refs.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    if (!refs.empty()) {
      std::vector<std::string> cycle;
      for (const auto& [name, _] : refs) cycle.push_back(name);
      for (const auto& param : params_) {
        if (refs.count(param.name)) {
          diags_.report("jube/param-cycle", loc(param.mark),
                        "parameter '" + param.name +
                            "' is part of a reference cycle involving {" +
                            str::join(cycle, ", ") + "}");
          cyclic_params_ = true;
          break;  // one finding names the whole cycle
        }
      }
    }
  }

  // --- step rules ----------------------------------------------------------

  void check_steps() {
    if (steps_.empty()) {
      diags_.report("jube/no-steps", loc(root_.mark()),
                    "benchmark declares no steps");
      return;
    }
    std::map<std::string, const StepDecl*> by_name;
    for (const auto& step : steps_) {
      const auto [it, inserted] = by_name.emplace(step.name, &step);
      if (!inserted) {
        diags_.report("jube/duplicate-step", loc(step.mark),
                      "step '" + step.name + "' is declared twice");
      }
    }
    for (const auto& step : steps_) {
      for (const auto& [dep, mark] : step.depends) {
        if (!by_name.count(dep)) {
          diags_.report("jube/dangling-depend", loc(mark),
                        "step '" + step.name + "' depends on unknown step '" +
                            dep + "'");
        }
      }
      if (options_.known_action && !options_.known_action(step.action)) {
        diags_.report("jube/unknown-action", loc(step.mark),
                      "step '" + step.name + "' invokes unregistered action '" +
                          step.action + "'");
      }
    }
    // Kahn's algorithm; whatever cannot be scheduled is the cyclic core.
    std::map<std::string, int> in_degree;
    for (const auto& step : steps_) in_degree[step.name] = 0;
    for (const auto& step : steps_) {
      for (const auto& [dep, _] : step.depends) {
        if (in_degree.count(dep)) ++in_degree[step.name];
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (auto& [name, degree] : in_degree) {
        if (degree != 0) continue;
        for (const auto& step : steps_) {
          for (const auto& [dep, _] : step.depends) {
            if (dep == name && in_degree.count(step.name) &&
                in_degree[step.name] > 0) {
              --in_degree[step.name];
              changed = true;
            }
          }
        }
        degree = -1;  // scheduled
      }
    }
    std::vector<std::string> cyclic;
    for (const auto& [name, degree] : in_degree) {
      if (degree > 0) cyclic.push_back(name);
    }
    if (!cyclic.empty()) {
      for (const auto& step : steps_) {
        if (std::find(cyclic.begin(), cyclic.end(), step.name) !=
            cyclic.end()) {
          diags_.report("jube/step-cycle", loc(step.mark),
                        "step depend graph has a cycle involving {" +
                            str::join(cyclic, ", ") + "}");
          break;
        }
      }
    }
  }

  // --- pattern rules -------------------------------------------------------

  void check_patterns() {
    std::set<std::string> seen;
    for (const auto& pattern : patterns_) {
      if (!seen.insert(pattern.name).second) {
        diags_.report("jube/duplicate-pattern", loc(pattern.mark),
                      "pattern '" + pattern.name + "' is declared twice");
      }
      try {
        const std::regex re(pattern.regex);
        if (re.mark_count() == 0) {
          diags_.report("jube/regex-no-capture", loc(pattern.regex_mark),
                        "pattern '" + pattern.name +
                            "' has no capture group; the analyser extracts "
                            "group 1");
        }
      } catch (const std::regex_error& e) {
        diags_.report("jube/bad-regex", loc(pattern.regex_mark),
                      "pattern '" + pattern.name +
                          "' regex does not compile: " + e.what());
      }
    }
  }

  // --- tag coverage --------------------------------------------------------

  std::vector<std::set<std::string>> tag_sets() const {
    std::set<std::string> declared;
    for (const auto& param : params_) {
      if (!param.tag.empty() && param.tag.front() != '!')
        declared.insert(param.tag);
      if (!param.tag.empty() && param.tag.front() == '!')
        declared.insert(param.tag.substr(1));
    }
    for (const auto& step : steps_) {
      if (!step.tag.empty() && step.tag.front() != '!')
        declared.insert(step.tag);
      if (!step.tag.empty() && step.tag.front() == '!')
        declared.insert(step.tag.substr(1));
    }
    std::vector<std::set<std::string>> sets = {{}};
    for (const auto& tag : declared) sets.push_back({tag});
    return sets;
  }

  void check_tag_coverage() {
    if (steps_.empty()) return;
    for (const auto& tags : tag_sets()) {
      bool any_active = false;
      for (const auto& step : steps_) {
        if (tag_active(step.tag, tags)) any_active = true;
      }
      if (!any_active) {
        diags_.report("jube/tag-selects-nothing", loc(root_.mark()),
                      "tag set " + tag_set_name(tags) +
                          " activates no steps — a run would do no work");
      }
    }
  }

  // --- static workload checks (sim layer) ----------------------------------

  std::vector<MarkedContext> expand(const std::set<std::string>& tags) const {
    // JUBE override semantics: a later active parameter of the same name
    // replaces an earlier one.
    std::vector<const ParamDecl*> active;
    for (const auto& param : params_) {
      if (!tag_active(param.tag, tags)) continue;
      const auto it =
          std::find_if(active.begin(), active.end(), [&](const ParamDecl* p) {
            return p->name == param.name;
          });
      if (it != active.end()) {
        *it = &param;
      } else {
        active.push_back(&param);
      }
    }
    std::vector<MarkedContext> contexts = {MarkedContext{}};
    for (const ParamDecl* param : active) {
      std::vector<MarkedContext> expanded;
      for (const auto& base : contexts) {
        for (std::size_t i = 0; i < param->values.size(); ++i) {
          MarkedContext next = base;
          next[param->name] = Binding{param->values[i], param->value_marks[i]};
          expanded.push_back(std::move(next));
          if (expanded.size() > 4096) return {};  // refuse runaway products
        }
      }
      contexts = std::move(expanded);
    }
    return contexts;
  }

  yaml::Mark context_mark(const MarkedContext& context, const std::string& key,
                          const yaml::Mark& fallback) const {
    const auto it = context.find(key);
    return it == context.end() ? fallback : it->second.mark;
  }

  void check_workloads() {
    if (cyclic_params_) return;  // expansion would not converge
    for (const auto& tags : tag_sets()) {
      std::vector<MarkedContext> contexts;
      try {
        contexts = expand(tags);
      } catch (const Error&) {
        continue;  // unresolved refs already reported statically
      }
      for (const auto& step : steps_) {
        if (!tag_active(step.tag, tags)) continue;
        for (const auto& context : contexts) {
          try {
            if (step.action == "llm_train") check_llm(context, step);
            if (step.action == "resnet_train") check_resnet(context, step);
          } catch (const Error&) {
            // Substitution failures inside individual values were already
            // reported by the parameter rules; don't double-report here.
          }
        }
      }
    }
  }

  /// The workpackage as the run reads it: through the action's decoder,
  /// which substitutes ${...} itself. A problem is reported at its key.
  template <typename Cell>
  std::optional<Cell> decode(Cell (*decoder)(const jube::Context&),
                             const MarkedContext& context,
                             const StepDecl& step) {
    jube::Context plain;
    for (const auto& [name, binding] : context) plain[name] = binding.value;
    try {
      return decoder(plain);
    } catch (const DecodeProblem& problem) {
      diags_.report(problem.rule,
                    loc(context_mark(context, problem.key, step.mark)),
                    problem.what());
      return std::nullopt;
    }
  }

  void check_llm(const MarkedContext& context, const StepDecl& step) {
    const std::optional<LlmTrain> cell =
        decode(&decode_llm_train, context, step);
    if (!cell) return;
    const yaml::Mark batch_mark =
        context_mark(context, "global_batch", step.mark);
    LayoutAnalysis analysis;
    for (const auto& finding : doom_findings(*cell, &analysis)) {
      diags_.report(finding.rule, loc(batch_mark), finding.message);
    }
    if (!analysis.valid) return;

    // Full layout analysis (memory at scale, comm volume, schedule bubble,
    // power feasibility, predicted time/energy). Collected per unique cell
    // and emitted after all tag sets ran, so the predicted-time ranking is
    // consistent regardless of which tag set discovered a cell first.
    const LayoutSpec& layout = cell->layout;
    const std::string cell_key =
        layout_label(layout) + " b" + std::to_string(layout.global_batch) +
        " m" + std::to_string(layout.micro_batch) + " @" +
        std::to_string(batch_mark.line) + ":" +
        std::to_string(batch_mark.column);
    if (layout_cells_seen_.insert(cell_key).second) {
      layout_cells_.push_back({layout, analysis, batch_mark});
    }
  }

  /// Emit the collected per-cell layout findings, ranking the feasible cells
  /// by predicted iteration time. layout/oom is skipped here: sim/static-oom
  /// already covers guaranteed OOM in JUBE scripts.
  void emit_layout_findings() {
    std::vector<const LayoutCell*> feasible;
    for (const auto& cell : layout_cells_) {
      for (const auto& finding : layout_findings(cell.spec, cell.analysis)) {
        if (finding.rule == "layout/oom") continue;
        diags_.report(finding.rule, loc(cell.mark), finding.message);
      }
      if (!cell.analysis.prediction.oom) feasible.push_back(&cell);
    }
    std::stable_sort(feasible.begin(), feasible.end(),
                     [](const LayoutCell* a, const LayoutCell* b) {
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

  void check_resnet(const MarkedContext& context, const StepDecl& step) {
    const std::optional<ResnetTrain> cell =
        decode(&decode_resnet_train, context, step);
    if (!cell) return;
    const yaml::Mark batch_mark =
        context_mark(context, "global_batch", step.mark);
    for (const auto& finding : doom_findings(*cell)) {
      diags_.report(finding.rule, loc(batch_mark), finding.message);
    }
  }

  /// One analyzed llm_train workpackage cell, unique per (layout, mark).
  struct LayoutCell {
    LayoutSpec spec;
    LayoutAnalysis analysis;
    yaml::Mark mark;
  };

  const yaml::Node& root_;
  const std::string& file_;
  const LintOptions& options_;
  DiagnosticList& diags_;
  std::vector<ParamDecl> params_;
  std::vector<StepDecl> steps_;
  std::vector<PatternDecl> patterns_;
  bool cyclic_params_ = false;
  std::vector<LayoutCell> layout_cells_;
  std::set<std::string> layout_cells_seen_;
};

}  // namespace

void lint_jube(const yaml::Node& root, const std::string& file,
               const LintOptions& options, DiagnosticList& diags) {
  JubeLinter(root, file, options, diags).run();
}

}  // namespace caraml::check
