// Agreement tests for the static layout analyzer (src/check/layout_model,
// sim/layout_analytic): the closed-form predictions must track what the
// ClusterSim task graph in core::run_llm_gpu actually produces.
//
// Tolerance: per-micro-step cost is *shared* between lint and sim (the
// simulator calls sim::llm_micro_cost), so iteration time and average power
// may differ only where the analyzer mirrors the task graph analytically
// (hierarchical all-reduce overlap, power-trace integration). 5% covers
// that; in practice the deltas are well under 1%.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "check/layout_model.hpp"
#include "core/llm.hpp"
#include "jube/jube.hpp"
#include "par/pipeline.hpp"
#include "sim/layout_analytic.hpp"
#include "topo/specs.hpp"

namespace caraml::check {
namespace {

constexpr double kAgreementTol = 0.05;  // documented in docs/static-analysis.md

struct Case {
  std::string system;
  models::GptConfig model;
  int tp = 1, pp = 1, dp = 1;
  std::int64_t micro = 4, global = 256;
  int num_nodes = 1;
  int devices_per_node = -1;  // -1: dp*tp*pp / num_nodes
};

sim::LlmPrediction predict(const Case& c, const topo::NodeSpec& node,
                           int devices_per_node) {
  sim::LlmLayoutCost layout;
  layout.model = c.model;
  layout.tensor_parallel = c.tp;
  layout.pipeline_parallel = c.pp;
  layout.data_parallel = c.dp;
  layout.micro_batch = c.micro;
  layout.global_batch = c.global;
  layout.devices_per_node = devices_per_node;
  layout.num_nodes = c.num_nodes;
  return sim::predict_llm_iteration(node, layout);
}

core::LlmRunResult simulate(const Case& c, int devices_per_node) {
  core::LlmRunConfig config;
  config.system_tag = c.system;
  config.model = c.model;
  config.global_batch = c.global;
  config.micro_batch = c.micro;
  config.tensor_parallel = c.tp;
  config.pipeline_parallel = c.pp;
  config.data_parallel = c.dp;
  config.num_nodes = c.num_nodes;
  config.devices = devices_per_node;
  return core::run_llm_gpu(config);
}

void expect_agreement(const Case& c) {
  const topo::NodeSpec& node =
      topo::SystemRegistry::instance().by_tag(c.system);
  const int devices_per_node =
      c.devices_per_node > 0 ? c.devices_per_node
                             : c.tp * c.pp * c.dp / c.num_nodes;
  const sim::LlmPrediction predicted = predict(c, node, devices_per_node);
  const core::LlmRunResult simulated = simulate(c, devices_per_node);
  const std::string label = c.system + " " + c.model.name +
                            " tp=" + std::to_string(c.tp) +
                            " pp=" + std::to_string(c.pp) +
                            " dp=" + std::to_string(c.dp);

  ASSERT_EQ(predicted.oom, simulated.oom) << label;
  EXPECT_DOUBLE_EQ(predicted.memory_per_device_bytes,
                   simulated.memory_per_device_bytes)
      << label;
  if (predicted.oom) return;
  EXPECT_NEAR(predicted.iteration_time_s, simulated.iteration_time_s,
              kAgreementTol * simulated.iteration_time_s)
      << label;
  EXPECT_NEAR(predicted.avg_power_w, simulated.avg_power_per_gpu_w,
              kAgreementTol * simulated.avg_power_per_gpu_w)
      << label;
  EXPECT_NEAR(predicted.tokens_per_s_per_device,
              simulated.tokens_per_s_per_gpu,
              kAgreementTol * simulated.tokens_per_s_per_gpu)
      << label;
  EXPECT_NEAR(predicted.mfu, simulated.mfu, kAgreementTol * simulated.mfu)
      << label;
  // Energy per iteration is avg power x iteration time on both sides.
  EXPECT_NEAR(predicted.energy_per_device_j,
              simulated.avg_power_per_gpu_w * simulated.iteration_time_s,
              kAgreementTol * simulated.avg_power_per_gpu_w *
                  simulated.iteration_time_s)
      << label;
}

// --- iteration-time / energy agreement vs ClusterSim ----------------------------

TEST(LayoutAgreement, SingleNodeDataParallel) {
  expect_agreement({"A100", models::GptConfig::gpt_800m(), 1, 1, 4, 4, 256});
  expect_agreement({"GH200", models::GptConfig::gpt_800m(), 1, 1, 1, 4, 64});
}

TEST(LayoutAgreement, TensorAndPipelineParallelWithinNode) {
  expect_agreement({"A100", models::GptConfig::gpt_13b(), 2, 2, 1, 1, 8});
  expect_agreement({"WAIH100", models::GptConfig::gpt_13b(), 4, 1, 1, 2, 16});
  expect_agreement({"A100", models::GptConfig::gpt_800m(), 1, 4, 1, 4, 32});
}

TEST(LayoutAgreement, TwoNodeDataParallelOverInfiniBand) {
  // 8 A100s on 2 nodes: the analyzer's hierarchical all-reduce mirror must
  // track the simulated intra-ring / inter-ring / broadcast timeline.
  expect_agreement(
      {"A100", models::GptConfig::gpt_800m(), 1, 1, 8, 4, 256, 2});
  expect_agreement(
      {"WAIH100", models::GptConfig::gpt_13b(), 2, 2, 2, 2, 64, 2});
}

// --- OOM agreement: every analyzer-declared OOM actually OOMs -------------------

TEST(LayoutAgreement, OomVerdictsMatchSimulationAcrossGrid) {
  const std::vector<models::GptConfig> zoo = {
      models::GptConfig::gpt_117m(), models::GptConfig::gpt_800m(),
      models::GptConfig::gpt_13b(), models::GptConfig::gpt_175b()};
  int ooms = 0;
  for (const auto& model : zoo) {
    for (const std::int64_t micro : {1, 4}) {
      Case c{"A100", model, 1, 1, 4, micro, 4 * micro};
      const topo::NodeSpec& node =
          topo::SystemRegistry::instance().by_tag(c.system);
      const sim::LlmPrediction predicted = predict(c, node, 4);
      const core::LlmRunResult simulated = simulate(c, 4);
      EXPECT_EQ(predicted.oom, simulated.oom)
          << model.name << " micro=" << micro;
      ooms += predicted.oom;
    }
  }
  EXPECT_GE(ooms, 2);  // the grid must actually exercise the OOM side
}

// --- pipeline-schedule validation -----------------------------------------------

TEST(ScheduleValidation, BuiltInSchedulesValidateClean) {
  for (const auto kind : {par::PipelineScheduleKind::kGPipe,
                          par::PipelineScheduleKind::kOneFOneB}) {
    for (const int stages : {2, 4, 8}) {
      for (const int micro : {1, 4, 16}) {
        const par::PipelineSchedule schedule =
            par::build_pipeline_schedule(kind, stages, micro);
        const auto issues = par::validate_pipeline_schedule(schedule);
        EXPECT_TRUE(issues.empty())
            << "kind=" << static_cast<int>(kind) << " stages=" << stages
            << " micro=" << micro
            << (issues.empty() ? "" : ": " + issues.front().message);
      }
    }
  }
}

TEST(ScheduleValidation, SeededDefectsAreFlagged) {
  // Missing backward slots: the pipeline can never complete.
  par::PipelineSchedule missing;
  missing.num_stages = 2;
  missing.num_micro = 1;
  missing.slots = {{0, 0, true, 0}, {1, 0, true, 1}};
  auto issues = par::validate_pipeline_schedule(missing);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().kind, par::ScheduleIssue::Kind::kMissingSlot);

  // Consumer starts before its producer finishes: deadlock under blocking
  // sends.
  par::PipelineSchedule early = par::build_pipeline_schedule(
      par::PipelineScheduleKind::kGPipe, 2, 2);
  for (auto& slot : early.slots) {
    if (slot.stage == 1 && slot.micro == 0 && slot.forward) slot.time = 0;
  }
  bool dependency = false;
  for (const auto& issue : par::validate_pipeline_schedule(early)) {
    dependency |= issue.kind == par::ScheduleIssue::Kind::kDependency;
  }
  EXPECT_TRUE(dependency);

  // Two slots booked on one stage at once.
  par::PipelineSchedule overlap = par::build_pipeline_schedule(
      par::PipelineScheduleKind::kGPipe, 2, 2);
  for (auto& slot : overlap.slots) {
    if (slot.stage == 0 && slot.micro == 1 && slot.forward) slot.time = 0;
  }
  bool overlapped = false;
  for (const auto& issue : par::validate_pipeline_schedule(overlap)) {
    overlapped |= issue.kind == par::ScheduleIssue::Kind::kOverlap;
  }
  EXPECT_TRUE(overlapped);

  // Valid but stretched far beyond the analytic bubble bound.
  par::PipelineSchedule starved = par::build_pipeline_schedule(
      par::PipelineScheduleKind::kGPipe, 2, 2);
  for (auto& slot : starved.slots) {
    if (!slot.forward) slot.time += 20;
  }
  bool flagged = false;
  for (const auto& issue : par::validate_pipeline_schedule(starved)) {
    flagged |= issue.kind == par::ScheduleIssue::Kind::kStarved;
  }
  EXPECT_TRUE(flagged);
}

TEST(ScheduleValidation, BubbleLowerBoundMatchesGpipeFormula) {
  EXPECT_DOUBLE_EQ(par::pipeline_bubble_lower_bound(4, 12),
                   par::gpipe_bubble_fraction(4, 12));
  EXPECT_DOUBLE_EQ(par::pipeline_bubble_lower_bound(1, 8), 0.0);
}

// --- scale: 10k+ devices in well under a second ---------------------------------

TEST(LayoutScale, TenThousandDeviceLayoutAnalyzesFast) {
  LayoutSpec spec;
  spec.node = topo::SystemRegistry::instance().by_tag("WAIH100");
  spec.model = models::GptConfig::gpt_175b();
  spec.model.activation_recompute = true;
  spec.tensor_parallel = 4;
  spec.pipeline_parallel = 16;
  spec.data_parallel = 160;  // 10240 devices, 2560 nodes
  spec.micro_batch = 1;
  spec.global_batch = 1600;

  const auto start = std::chrono::steady_clock::now();
  const LayoutAnalysis analysis = analyze_layout(spec);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(analysis.valid) << analysis.invalid_reason;
  EXPECT_FALSE(analysis.prediction.oom);
  EXPECT_EQ(analysis.num_nodes, 2560);
  EXPECT_GT(analysis.prediction.dp_inter_bytes_per_leader, 0.0);
  // Closed form, not simulation: the whole analysis is microseconds; a full
  // second of headroom keeps the bound robust on loaded CI machines.
  EXPECT_LT(elapsed_s, 1.0);
}

// --- statically-doomed workpackage gating (caraml run --skip-doomed) ------------

TEST(SkipDoomed, WorkpackageDoomReasons) {
  jube::Context doomed{{"system", "A100"}, {"model", "175B"},
                       {"global_batch", "512"}, {"micro_batch", "1"}};
  const std::string reason = workpackage_doom_reason(doomed, {"llm_train"});
  EXPECT_NE(reason.find("llm_train"), std::string::npos);
  EXPECT_NE(reason.find("static OOM"), std::string::npos);

  jube::Context fine{{"system", "A100"}, {"model", "800M"},
                     {"global_batch", "256"}, {"micro_batch", "4"}};
  EXPECT_EQ(workpackage_doom_reason(fine, {"llm_train"}), "");

  jube::Context resnet_oom{{"system", "A100"}, {"variant", "resnet50"},
                           {"global_batch", "1024"}, {"devices", "1"}};
  EXPECT_NE(workpackage_doom_reason(resnet_oom, {"resnet_train"}).find(
                "static OOM"),
            std::string::npos);

  // Unknown actions and non-GPU systems never gate.
  EXPECT_EQ(workpackage_doom_reason(doomed, {"mystery_step"}), "");

  // Input errors are not doom: a context that does not decode runs, and
  // fails as it would without the gate.
  for (const char* dtype : {"fp16", "int8"}) {
    jube::Context bad = fine;
    bad["dtype"] = dtype;
    EXPECT_EQ(workpackage_doom_reason(bad, {"llm_train"}), "") << dtype;
  }
}

TEST(SkipDoomed, SweepMarksGatedWorkpackagesSkipped) {
  jube::Benchmark benchmark("gate-demo");
  jube::ParameterSet params;
  params.name = "p";
  params.parameters = {jube::Parameter{"x", {"ok", "doomed"}, ""}};
  benchmark.add_parameter_set(params);
  benchmark.add_step(jube::Step{"s", {}, "echo", ""});
  jube::ActionRegistry registry;
  int executed = 0;
  registry.register_action("echo", [&](const jube::Context& context) {
    ++executed;
    return context.at("x");
  });

  jube::SweepOptions sweep;
  sweep.static_gate = [](const jube::Context& context,
                         const std::vector<std::string>& actions) {
    EXPECT_EQ(actions, std::vector<std::string>{"echo"});
    return context.at("x") == "doomed" ? "provably cannot run" : "";
  };
  const jube::RunResult result = benchmark.run(registry, {}, sweep);
  ASSERT_EQ(result.workpackages.size(), 2u);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(result.workpackages[0].status, "ok");
  EXPECT_EQ(result.workpackages[1].status, "skipped");
  EXPECT_EQ(result.workpackages[1].analysed.at("status"), "skipped");
  EXPECT_EQ(result.workpackages[1].analysed.at("skip_reason"),
            "provably cannot run");
  EXPECT_TRUE(result.workpackages[1].outputs.empty());
}

}  // namespace
}  // namespace caraml::check
