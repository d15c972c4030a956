// Chaos-campaign lint rules: validate a `campaign:` document structurally,
// mirroring what chaos::CampaignConfig::from_yaml / enumerate_grid would
// reject at load time — without linking the chaos library (check sits below
// it in the dependency order).
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "check/layout_model.hpp"
#include "check/lint.hpp"

namespace caraml::check {

namespace {

const std::set<std::string>& campaign_known_fields() {
  static const std::set<std::string> fields = {
      "name",          "seed",
      "workload",      "system",
      "mode",          "scenarios",
      "steps",         "checkpoint_every",
      "checkpoint_cost_s", "restart_cost_s",
      "retries",       "deadline_s",
      "tolerance",     "model",
      "global_batch",  "micro_batch",
      "devices",       "prompt_tokens",
      "generate_tokens", "space"};
  return fields;
}

const std::set<std::string>& chaos_known_kinds() {
  static const std::set<std::string> kinds = {
      "device_failure", "thermal_throttle", "link_degrade", "sensor_dropout"};
  return kinds;
}

std::string fmt(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

bool is_window_kind(const std::string& kind) {
  return kind == "thermal_throttle" || kind == "link_degrade" ||
         kind == "sensor_dropout";
}

}  // namespace

void lint_campaign(const yaml::Node& root, const std::string& file,
                   DiagnosticList& diags) {
  const yaml::NodePtr body_ptr = root.find("campaign");
  const yaml::Node& body = body_ptr ? *body_ptr : root;
  if (!body.is_map()) {
    diags.report("yaml/type-mismatch", SourceLocation::at(file, body.mark()),
                 "'campaign' must be a mapping");
    return;
  }
  auto loc = [&](const yaml::Mark& mark) {
    return SourceLocation::at(file, mark);
  };

  for (const auto& [key, value] : body.entries()) {
    if (!campaign_known_fields().count(key)) {
      diags.report("chaos/unknown-field", loc(value->mark()),
                   "campaign key '" + key + "' is not part of the schema and "
                   "is ignored by the loader");
    }
  }

  const std::string workload = body.get_or("workload", "llm");
  if (workload != "llm" && workload != "resnet" && workload != "inference") {
    diags.report("chaos/bad-workload", loc(body.mark()),
                 "workload '" + workload +
                     "' is not llm, resnet or inference");
  }
  if (workload == "llm" || workload == "inference") {
    try {
      decode_gpt_model(body.get_or("model", "800M"));
    } catch (const DecodeProblem& problem) {
      diags.report(problem.rule, loc(body.find("model")->mark()),
                   problem.what());
    }
  }
  const std::string mode = body.get_or("mode", "grid");
  std::int64_t scenarios = 0;
  if (mode != "grid" && mode != "random") {
    diags.report("chaos/bad-mode", loc(body.mark()),
                 "mode '" + mode + "' is not grid or random");
  } else if (mode == "random") {
    scenarios = body.get_int_or("scenarios", 0);
    if (scenarios < 1) {
      diags.report("chaos/bad-mode", loc(body.mark()),
                   "random mode needs scenarios >= 1, got " +
                       std::to_string(scenarios));
    }
  }
  const double tolerance = body.get_double_or("tolerance", 0.25);
  if (!std::isfinite(tolerance) || tolerance <= 0.0) {
    diags.report("chaos/bad-tolerance", loc(body.mark()),
                 "tolerance " + fmt(tolerance) + " must be finite and > 0");
  }
  const double deadline_s = body.get_double_or("deadline_s", 120.0);
  if (!std::isfinite(deadline_s)) {
    diags.report("chaos/bad-deadline", loc(body.mark()),
                 "deadline_s must be finite (<= 0 disables the watchdog)");
  }

  // --- fault-space axes ----------------------------------------------------
  // Defaults (FaultSpace::defaults) expand to 4 kinds x 2 times = 8 arms; an
  // explicit `space:` block overrides each axis independently.
  std::size_t kind_arms = 4;
  std::size_t window_kind_arms = 3;
  std::size_t time_arms = 2;
  std::size_t device_arms = 1;
  std::size_t severity_arms = 1;
  const yaml::NodePtr space = body.find("space");
  if (space) {
    if (!space->is_map()) {
      diags.report("yaml/type-mismatch", loc(space->mark()),
                   "'space' must be a mapping");
      return;
    }
    const auto check_axis = [&](const char* axis,
                                const yaml::NodePtr& node) -> bool {
      if (!node) return true;
      if (!node->is_sequence()) {
        diags.report("yaml/type-mismatch", loc(node->mark()),
                     std::string("space ") + axis + " must be a list");
        return false;
      }
      if (node->items().empty()) {
        diags.report("chaos/empty-axis", loc(node->mark()),
                     std::string("space ") + axis +
                         " lists no values; the grid is empty");
        return false;
      }
      return true;
    };
    if (const yaml::NodePtr kinds = space->find("kinds");
        check_axis("kinds", kinds) && kinds) {
      kind_arms = 0;
      window_kind_arms = 0;
      for (const auto& item : kinds->items()) {
        const std::string kind = item->as_string();
        if (!chaos_known_kinds().count(kind)) {
          diags.report("chaos/bad-axis", loc(item->mark()),
                       "unknown fault kind '" + kind + "'");
          continue;
        }
        ++kind_arms;
        if (is_window_kind(kind)) ++window_kind_arms;
      }
    }
    if (const yaml::NodePtr times = space->find("times");
        check_axis("times", times) && times) {
      time_arms = times->items().size();
      for (const auto& item : times->items()) {
        const double t = item->as_double();
        if (!std::isfinite(t) || t < 0.0 || t >= 1.0) {
          diags.report("chaos/bad-axis", loc(item->mark()),
                       "injection time " + fmt(t) +
                           " outside [0, 1) of the horizon");
        }
      }
    }
    if (const yaml::NodePtr devices = space->find("devices");
        check_axis("devices", devices) && devices) {
      device_arms = devices->items().size();
      for (const auto& item : devices->items()) {
        if (item->as_int() < -1) {
          diags.report("chaos/bad-axis", loc(item->mark()),
                       "device index " + std::to_string(item->as_int()) +
                           " below -1 (-1 = all devices)");
        }
      }
    }
    if (const yaml::NodePtr severities = space->find("severities");
        check_axis("severities", severities) && severities) {
      severity_arms = severities->items().size();
      for (const auto& item : severities->items()) {
        const double s = item->as_double();
        if (!std::isfinite(s) || s <= 0.0 || s > 1.0) {
          diags.report("chaos/bad-axis", loc(item->mark()),
                       "severity " + fmt(s) + " outside (0, 1]");
        }
      }
    }
    const double window_frac = space->get_double_or("window_frac", 0.2);
    if (!std::isfinite(window_frac) || window_frac <= 0.0 ||
        window_frac > 1.0) {
      diags.report("chaos/bad-axis", loc(space->mark()),
                   "window_frac " + fmt(window_frac) + " outside (0, 1]");
    }
  }

  // Grid size mirrors FaultSpace::grid_size: the severity axis collapses for
  // point faults.
  const std::size_t point_kind_arms = kind_arms - window_kind_arms;
  const std::size_t grid =
      time_arms * device_arms *
      (point_kind_arms + window_kind_arms * severity_arms);
  const std::size_t expanded =
      mode == "random" ? static_cast<std::size_t>(std::max<std::int64_t>(
                             scenarios, 0))
                       : grid;
  if (expanded > 0 && expanded < 12) {
    diags.report("chaos/small-campaign", loc(body.mark()),
                 "campaign expands to " + std::to_string(expanded) +
                     " scenario(s); fewer than 12 gives thin fault-space "
                     "coverage");
  }
}

}  // namespace caraml::check
