// Golden-diagnostic tests for `caraml lint` (src/check).
//
// The corpus under tests/lint_corpus/ holds deliberately broken configs;
// each test asserts the exact rule ids and file:line:column locations the
// linter must produce — a column drifting by one means the caret no longer
// points at the offending token. The clean-corpus test runs the linter over
// every shipped file in configs/ and pins the expected result (zero errors,
// two known warnings).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "check/lint.hpp"
#include "check/rules.hpp"
#include "telemetry/json.hpp"
#include "topo/spec_yaml.hpp"
#include "util/error.hpp"
#include "yaml/yaml.hpp"

namespace caraml::check {
namespace {

std::string corpus(const std::string& name) {
  return std::string(CARAML_LINT_CORPUS_DIR) + "/" + name;
}

/// Compact "rule@line:col" fingerprints, in the list's sorted order.
std::vector<std::string> fingerprints(DiagnosticList& diags) {
  diags.sort();
  std::vector<std::string> out;
  for (const auto& d : diags.items()) {
    out.push_back(d.rule_id + "@" + std::to_string(d.location.line) + ":" +
                  std::to_string(d.location.column));
  }
  return out;
}

std::vector<std::string> lint_corpus_file(const std::string& name,
                                          DiagnosticList* keep = nullptr) {
  DiagnosticList diags;
  lint_file(corpus(name), LintOptions{}, diags);
  auto prints = fingerprints(diags);
  if (keep != nullptr) *keep = diags;
  return prints;
}

using V = std::vector<std::string>;

// --- golden corpus --------------------------------------------------------------

TEST(LintCorpus, DuplicateKeysBlockAndFlow) {
  EXPECT_EQ(lint_corpus_file("dup_key.yaml"),
            (V{"yaml/duplicate-key@3:3", "yaml/duplicate-key@7:24"}));
}

TEST(LintCorpus, BadAndCapturelessRegex) {
  // The llm_train cell is itself fine, so it picks up the layout analyzer's
  // info-level predictions alongside the seeded regex defects.
  EXPECT_EQ(lint_corpus_file("bad_regex.yaml"),
            (V{"layout/predicted-energy@4:5",
               "layout/predicted-oom-margin@4:5", "layout/predicted-time@4:5",
               "jube/bad-regex@8:12", "jube/regex-no-capture@10:12"}));
}

TEST(LintCorpus, ParameterCycleAndUnresolvedReference) {
  DiagnosticList diags;
  EXPECT_EQ(lint_corpus_file("param_cycle.yaml", &diags),
            (V{"jube/param-cycle@6:9", "jube/unresolved-param@11:18"}));
  // The unresolved-param location is the value token "${missing}-suffix".
  EXPECT_NE(diags.items()[1].message.find("${missing}"), std::string::npos);
}

TEST(LintCorpus, StepGraphDefects) {
  EXPECT_EQ(lint_corpus_file("steps_bad.yaml"),
            (V{"jube/dangling-depend@8:23", "jube/step-cycle@9:5",
               "jube/duplicate-step@15:5"}));
}

TEST(LintCorpus, TagSetSelectingNothing) {
  EXPECT_EQ(lint_corpus_file("tag_empty.yaml"),
            (V{"jube/tag-selects-nothing@1:1", "layout/predicted-energy@10:5",
               "layout/predicted-oom-margin@10:5",
               "layout/predicted-time@10:5"}));
}

TEST(LintCorpus, GuaranteedOomLlmWorkloadFlaggedStatically) {
  DiagnosticList diags;
  EXPECT_EQ(lint_corpus_file("oom_llm.yaml", &diags),
            (V{"layout/predicted-oom-margin@11:18", "sim/static-oom@11:18"}));
  // Warning, not error: the simulator survives an OOM (reports the cell as
  // OOM), so a lint run over such a sweep must still exit 0.
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NE(diags.items()[1].message.find("175B"), std::string::npos);
  EXPECT_NE(diags.items()[1].message.find("A100"), std::string::npos);
  // The layout analyzer states the same footprint/capacity verdict, at the
  // same mark, from the shared analytic hooks.
  EXPECT_NE(diags.items()[0].message.find("37.3 GiB"), std::string::npos);
}

// --- lint decodes run settings as the run does, on every system -----------------

TEST(LintCorpus, Gc200LlmModelTagDecodedLikeTheRun) {
  EXPECT_EQ(lint_corpus_file("gc200_llm_model.yaml"),
            (V{"yaml/type-mismatch@12:18"}));
}

TEST(LintCorpus, Gc200LlmInferenceOnlyDtypeRejected) {
  EXPECT_EQ(lint_corpus_file("gc200_llm_dtype.yaml"),
            (V{"yaml/type-mismatch@11:18"}));
}

TEST(LintCorpus, Gc200ResnetVariantDecodedLikeTheRun) {
  EXPECT_EQ(lint_corpus_file("gc200_resnet_variant.yaml"),
            (V{"yaml/type-mismatch@12:18"}));
}

TEST(LintCorpus, CampaignModelTagDecodedLikeTheRunner) {
  DiagnosticList diags;
  EXPECT_EQ(lint_corpus_file("campaign_model.yaml", &diags),
            (V{"yaml/type-mismatch@7:10"}));
  EXPECT_NE(diags.items()[0].message.find("117M/800M/13B/175B"),
            std::string::npos);
}

// --- layout analyzer corpus -----------------------------------------------------

TEST(LintCorpus, LayoutFeasibilityDefects) {
  DiagnosticList diags;
  EXPECT_EQ(lint_corpus_file("layout_bad.yaml", &diags),
            (V{"layout/invalid@5:5", "layout/invalid@10:5", "layout/oom@18:5",
               "layout/predicted-oom-margin@18:5",
               "layout/activation-pressure@26:5",
               "layout/predicted-energy@26:5",
               "layout/predicted-oom-margin@26:5", "layout/predicted-time@26:5",
               "layout/schedule-bubble@26:5", "layout/comm-bound@39:5",
               "layout/power-infeasible@39:5", "layout/power-infeasible@39:5",
               "layout/predicted-energy@39:5",
               "layout/predicted-oom-margin@39:5",
               "layout/predicted-time@39:5"}));
  // Invalid layouts are errors (they cannot run); feasibility hazards the
  // simulator would survive (OOM, pressure, comm-bound, power) are warnings.
  EXPECT_EQ(diags.count(Severity::kError), 2u);
  EXPECT_EQ(diags.count(Severity::kWarning), 5u);
  // Both the 200 W device cap and the 500 W node cap fire on slow-fabric.
  const auto& items = diags.items();
  int power = 0;
  for (const auto& d : items) power += d.rule_id == "layout/power-infeasible";
  EXPECT_EQ(power, 2);
}

TEST(LintCorpus, LayoutDtypeAxisDoublesFootprint) {
  DiagnosticList diags;
  EXPECT_EQ(lint_corpus_file("layout_dtype.yaml", &diags),
            (V{"layout/predicted-energy@7:5",
               "layout/predicted-oom-margin@7:5", "layout/predicted-time@7:5",
               "layout/oom@16:5", "layout/predicted-oom-margin@16:5",
               "layout/invalid@24:5"}));
  // Only the non-training precision is an error; the fp32 OOM is a warning
  // (the simulator survives it), the bf16 twin lints clean.
  EXPECT_EQ(diags.count(Severity::kError), 1u);
  EXPECT_EQ(diags.count(Severity::kWarning), 1u);
  // Pin the dtype-dependent margins: the identical layout goes from a
  // 5.8 GiB margin at bf16 to OOM at fp32 — the memory model doubled its
  // bytes-per-value, it did not just rescale a constant.
  const auto& items = diags.items();
  EXPECT_NE(items[1].message.find("31.5 GiB"), std::string::npos)
      << items[1].message;
  EXPECT_NE(items[1].message.find("margin 5.8 GiB"), std::string::npos)
      << items[1].message;
  EXPECT_NE(items[3].message.find("40.4 GiB"), std::string::npos)
      << items[3].message;
  EXPECT_NE(items[3].message.find("margin -3.2 GiB"), std::string::npos)
      << items[3].message;
  EXPECT_NE(items[5].message.find("int8 is inference-only"),
            std::string::npos)
      << items[5].message;
}

TEST(LintCorpus, SeededBadPipelineSchedules) {
  DiagnosticList diags;
  lint_file(corpus("schedule_bad.yaml"), LintOptions{}, diags);
  diags.sort();
  std::vector<std::string> schedule_prints;
  for (const auto& d : diags.items()) {
    if (d.rule_id.rfind("layout/schedule-", 0) == 0 &&
        d.rule_id != "layout/schedule-bubble") {
      schedule_prints.push_back(d.rule_id + "@" +
                                std::to_string(d.location.line) + ":" +
                                std::to_string(d.location.column));
    }
  }
  // Four never-scheduled backward slots, one blocking-send dependency
  // violation, one double-booked stage, one starved-but-valid timeline.
  EXPECT_EQ(schedule_prints,
            (V{"layout/schedule-deadlock@14:7", "layout/schedule-deadlock@14:7",
               "layout/schedule-deadlock@14:7", "layout/schedule-deadlock@14:7",
               "layout/schedule-deadlock@32:7", "layout/schedule-overlap@53:7",
               "layout/schedule-starved@75:7"}));
}

TEST(LintCorpus, LinkEfficiencyAndPowerCapRanges) {
  EXPECT_EQ(lint_corpus_file("link_bad.yaml"),
            (V{"sim/nonpositive-spec@4:5", "sim/nonpositive-spec@4:5",
               "sim/nonpositive-spec@6:29"}));
}

TEST(LintCorpus, FaultPlanDefects) {
  EXPECT_EQ(lint_corpus_file("fault_bad.yaml"),
            (V{"fault/unknown-field@4:15", "fault/bad-rate@5:9",
               "fault/unknown-kind@7:14", "fault/bad-severity@8:7",
               "fault/negative-time@8:7", "fault/zero-window@9:7",
               "fault/overlap@11:7", "fault/bad-device@12:7",
               "fault/beyond-horizon@12:7", "fault/retry-invalid@14:5",
               "fault/retry-unbounded@14:5"}));
}

TEST(LintCorpus, ChaosCampaignDefects) {
  EXPECT_EQ(lint_corpus_file("campaign_bad.yaml"),
            (V{"chaos/bad-mode@2:3", "chaos/bad-tolerance@2:3",
               "chaos/bad-workload@2:3", "chaos/small-campaign@2:3",
               "chaos/unknown-field@6:15", "chaos/bad-axis@8:5",
               "chaos/bad-axis@8:13", "chaos/bad-axis@9:18",
               "chaos/empty-axis@10:14", "chaos/bad-axis@11:18"}));
}

TEST(LintCorpus, ZeroTdpCalibrationTable) {
  EXPECT_EQ(
      lint_corpus_file("zero_tdp.yaml"),
      (V{"sim/anchor-mismatch@4:18", "sim/nonpositive-spec@4:18",
         "sim/anchor-mismatch@5:22", "sim/nonpositive-spec@5:22",
         "sim/anchor-mismatch@6:24", "sim/duplicate-tag@7:10",
         "sim/unknown-field@9:19", "sim/missing-tag@10:5"}));
}

// --- clean corpus: every shipped config ----------------------------------------

TEST(LintCorpus, ShippedConfigsProduceNoErrors) {
  DiagnosticList diags = lint_paths({CARAML_CONFIG_DIR});
  EXPECT_EQ(diags.count(Severity::kError), 0u) << diags.render_human();
  // The two expected warnings: the hypothetical H200X system in the shipped
  // calibration table, and the resnet50 batch-1024 cell that genuinely OOMs
  // an A100 at runtime (the lint prediction matches the simulator).
  ASSERT_EQ(diags.count(Severity::kWarning), 2u) << diags.render_human();
  diags.sort();
  const Diagnostic* unknown_system = nullptr;
  const Diagnostic* oom = nullptr;
  for (const auto& d : diags.items()) {
    if (d.rule_id == "sim/unknown-system") unknown_system = &d;
    if (d.rule_id == "sim/static-oom") oom = &d;
  }
  ASSERT_NE(unknown_system, nullptr);
  EXPECT_NE(unknown_system->location.file.find("calibration_table1.yaml"),
            std::string::npos);
  ASSERT_NE(oom, nullptr);
  EXPECT_NE(oom->location.file.find("resnet50_benchmark.yaml"),
            std::string::npos);
  EXPECT_EQ(oom->location.line, 27u);
  EXPECT_EQ(oom->location.column, 31u);  // the "1024" token in the batch list
}

TEST(LintCorpus, ShippedLayoutManifestIsCleanAndRanked) {
  DiagnosticList diags =
      lint_paths({std::string(CARAML_CONFIG_DIR) + "/layouts_paper_scale.yaml"});
  EXPECT_EQ(diags.count(Severity::kError), 0u) << diags.render_human();
  EXPECT_EQ(diags.count(Severity::kWarning), 0u) << diags.render_human();
  // Every shipped entry is feasible, so each gets the full predicted-* set
  // and a rank; the 10240-device 175B layout participates like any other.
  int ranked = 0;
  bool saw_paper_scale = false;
  for (const auto& d : diags.items()) {
    if (d.rule_id != "layout/predicted-time") continue;
    ++ranked;
    EXPECT_NE(d.message.find(", rank "), std::string::npos);
    saw_paper_scale |=
        d.message.find("waih100-175b-10240dev") != std::string::npos;
  }
  EXPECT_EQ(ranked, 5);
  EXPECT_TRUE(saw_paper_scale);
}

// --- engine ---------------------------------------------------------------------

TEST(LintEngine, ReportPullsSeverityFromCatalogue) {
  DiagnosticList diags;
  diags.report("sim/static-oom", {"f.yaml", 1, 1}, "msg");
  EXPECT_EQ(diags.items()[0].severity, Severity::kWarning);
  diags.report("jube/param-cycle", {"f.yaml", 2, 1}, "msg");
  EXPECT_EQ(diags.items()[1].severity, Severity::kError);
}

TEST(LintEngine, ReportRejectsUnregisteredRule) {
  DiagnosticList diags;
  EXPECT_THROW(diags.report("made/up-rule", {"f.yaml", 1, 1}, "msg"),
               NotFound);
}

TEST(LintEngine, ExactDuplicatesAreDropped) {
  DiagnosticList diags;
  diags.report("jube/param-cycle", {"f.yaml", 3, 7}, "same");
  diags.report("jube/param-cycle", {"f.yaml", 3, 7}, "same");
  diags.report("jube/param-cycle", {"f.yaml", 3, 7}, "different");
  EXPECT_EQ(diags.items().size(), 2u);
}

TEST(LintEngine, SortIsByFileLineColumnRule) {
  DiagnosticList diags;
  diags.report("fault/bad-rate", {"b.yaml", 1, 1}, "m");
  diags.report("jube/param-cycle", {"a.yaml", 9, 1}, "m");
  diags.report("jube/bad-regex", {"a.yaml", 2, 5}, "m");
  diags.report("jube/dangling-depend", {"a.yaml", 2, 1}, "m");
  EXPECT_EQ(fingerprints(diags),
            (V{"jube/dangling-depend@2:1", "jube/bad-regex@2:5",
               "jube/param-cycle@9:1", "fault/bad-rate@1:1"}));
}

TEST(LintEngine, HumanRenderingFollowsCompilerConvention) {
  DiagnosticList diags;
  diags.report("sim/static-oom", {"cfg.yaml", 27, 31}, "needs too much");
  const std::string text = diags.render_human();
  EXPECT_NE(text.find("cfg.yaml:27:31: warning: needs too much "
                      "[sim/static-oom]"),
            std::string::npos);
  EXPECT_NE(text.find("0 error(s), 1 warning(s), 0 info(s)"),
            std::string::npos);
}

TEST(LintEngine, JsonRenderingCarriesSummary) {
  DiagnosticList diags;
  diags.report("fault/bad-rate", {"p.yaml", 5, 9}, "rate must be >= 0");
  const std::string json = diags.render_json();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"fault/bad-rate\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

TEST(LintEngine, JsonRenderingEscapesControlAndInvalidBytes) {
  DiagnosticList diags;
  // Messages quote bytes straight from user configs: control characters,
  // DEL, a bare continuation byte (invalid UTF-8) and a valid two-byte
  // sequence. The artifact must stay parseable JSON regardless.
  diags.report("fault/bad-rate", {"bad\x01name.yaml", 1, 1},
               std::string("ctrl \x02 del \x7f bad \xbf ok \xc3\xa9"));
  const std::string json = diags.render_json();
  EXPECT_NE(json.find("\\u0002"), std::string::npos);
  EXPECT_NE(json.find("\\u007f"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  // The stray continuation byte became U+FFFD; the valid sequence survived.
  EXPECT_NE(json.find("\xef\xbf\xbd"), std::string::npos);
  EXPECT_NE(json.find("\xc3\xa9"), std::string::npos);
  // Round-trips through the strict in-repo JSON parser.
  const auto parsed = telemetry::json::parse(json);
  EXPECT_EQ(parsed.at("summary").at("errors").as_int(), 1);
  const std::string message =
      parsed.at("diagnostics").as_array()[0].at("message").as_string();
  EXPECT_NE(message.find('\x02'), std::string::npos);
  EXPECT_NE(message.find("bad \xef\xbf\xbd ok"), std::string::npos);
}

TEST(LintEngine, ListedRulesSortDeterministically) {
  // The CLI sorts --list-rules by id; mirror the invariant here so the
  // catalogue stays renderable in a stable order however rules register.
  std::vector<std::string> ids;
  for (const auto& rule : rule_catalogue()) ids.push_back(rule.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(),
                                 std::string("layout/predicted-time")));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(),
                                 std::string("layout/schedule-deadlock")));
}

TEST(LintEngine, CatalogueIdsAreUniqueAndDocumented) {
  std::vector<std::string> ids;
  for (const auto& rule : rule_catalogue()) {
    ids.push_back(rule.id);
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_GE(ids.size(), 30u);
}

TEST(LintEngine, MissingPathBecomesDiagnosticNotThrow) {
  DiagnosticList diags = lint_paths({corpus("does_not_exist.yaml")});
  ASSERT_EQ(diags.items().size(), 1u);
  EXPECT_EQ(diags.items()[0].rule_id, "yaml/parse-error");
  EXPECT_TRUE(diags.has_errors());
}

// --- classification & per-layer dispatch ---------------------------------------

TEST(LintClassify, TopLevelKeysDecideKind) {
  EXPECT_EQ(classify(*yaml::parse("steps: []")), FileKind::kJube);
  EXPECT_EQ(classify(*yaml::parse("benchmark: {name: x}")), FileKind::kJube);
  EXPECT_EQ(classify(*yaml::parse("fault_plan: {events: []}")),
            FileKind::kFaultPlan);
  EXPECT_EQ(classify(*yaml::parse("events: []")), FileKind::kFaultPlan);
  EXPECT_EQ(classify(*yaml::parse("systems: []")), FileKind::kSpecTable);
  EXPECT_EQ(classify(*yaml::parse("layouts: []")), FileKind::kLayouts);
  EXPECT_EQ(classify(*yaml::parse("foo: 1")), FileKind::kUnknown);
}

TEST(LintClassify, UnknownSchemaIsWarning) {
  DiagnosticList diags;
  lint_text("foo: 1\n", "mystery.yaml", {}, diags);
  ASSERT_EQ(diags.items().size(), 1u);
  EXPECT_EQ(diags.items()[0].rule_id, "yaml/unknown-schema");
  EXPECT_FALSE(diags.has_errors());
}

TEST(LintClassify, ParseErrorCarriesLocation) {
  DiagnosticList diags;
  lint_text("ok: 1\n\tbad: tab-indent\n", "broken.yaml", {}, diags);
  ASSERT_EQ(diags.items().size(), 1u);
  EXPECT_EQ(diags.items()[0].rule_id, "yaml/parse-error");
  EXPECT_EQ(diags.items()[0].location.line, 2u);
}

TEST(LintJube, UnknownActionNeedsRegistryPredicate) {
  const std::string text =
      "benchmark: {name: x}\nsteps:\n  - name: s\n    do: bogus_action\n";
  DiagnosticList without;
  lint_text(text, "b.yaml", {}, without);
  for (const auto& d : without.items()) {
    EXPECT_NE(d.rule_id, "jube/unknown-action");
  }
  LintOptions options;
  options.known_action = [](const std::string& name) {
    return name == "llm_train";
  };
  DiagnosticList with;
  lint_text(text, "b.yaml", options, with);
  bool found = false;
  for (const auto& d : with.items()) found |= d.rule_id == "jube/unknown-action";
  EXPECT_TRUE(found);
}

// --- calibration table loader (topo/spec_yaml) ----------------------------------

TEST(SpecYaml, OverridesApplyOnTopOfRegistryEntry) {
  const topo::SpecTable table = topo::load_spec_table_file(
      std::string(CARAML_CONFIG_DIR) + "/calibration_table1.yaml");
  ASSERT_EQ(table.systems.size(), 3u);
  const topo::NodeSpec& a100 = table.systems[0];
  EXPECT_EQ(a100.jube_tag, "A100");
  EXPECT_DOUBLE_EQ(a100.device.max_mfu_gemm, 0.47);  // overridden
  EXPECT_DOUBLE_EQ(a100.device.batch_half_mfu, 26.0);
  EXPECT_GT(a100.device.peak_fp16_flops, 0.0);  // inherited from registry
  EXPECT_EQ(a100.devices_per_node, 4);
}

TEST(SpecYaml, UnknownTagStartsFromScratch) {
  const topo::SpecTable table = topo::load_spec_table_file(
      std::string(CARAML_CONFIG_DIR) + "/calibration_table1.yaml");
  const topo::NodeSpec& h200x = table.systems[2];
  EXPECT_EQ(h200x.jube_tag, "H200X");
  EXPECT_DOUBLE_EQ(h200x.device.peak_fp16_flops, 1.2e15);
  EXPECT_EQ(h200x.devices_per_node, 4);
  EXPECT_EQ(h200x.max_nodes, 2);
  EXPECT_DOUBLE_EQ(h200x.peer_link.bandwidth, 900.0e9);
  EXPECT_DOUBLE_EQ(h200x.inter_node.bandwidth, 50.0e9);
}

}  // namespace
}  // namespace caraml::check
