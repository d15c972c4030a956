// CARAML facade: the benchmark-suite entry points that glue the workload
// runners to the JUBE engine (registered actions + result patterns), plus
// the standard experiment definitions of the paper's evaluation section.
#pragma once

#include <string>
#include <vector>

#include "core/llm.hpp"
#include "core/resilient.hpp"
#include "core/resnet.hpp"
#include "jube/jube.hpp"

namespace caraml::core {

/// The run configs the llm_train / resnet_train actions run, decoded from a
/// workpackage context by check::decode_llm_train / decode_resnet_train.
/// `caraml llm` / `resnet` feed their flags in under the same keys. Throw
/// InvalidArgument with the decoder's problem.
LlmRunConfig llm_run_config(const jube::Context& context);
ResnetRunConfig resnet_run_config(const jube::Context& context);

/// Fault-injection keys: a context with a fault_plan file or a fault_rate
/// > 0 runs resiliently with the options below (fault_seed, fault_horizon_s,
/// fault_steps, checkpoint_every, checkpoint_dir, fault_retries).
bool fault_requested(const jube::Context& context);
ResilienceOptions resilience_from_context(const jube::Context& context,
                                          int num_devices);

/// Register the CARAML step actions on a JUBE registry:
///  * "llm_train"     — params: system, global_batch, micro_batch, devices
///  * "resnet_train"  — params: system, global_batch, devices
///  * "harness_sleep" — params: sleep_ms; wall-clock stand-in for real job
///    time, used by the sweep-parallelism smoke config
/// Each emits "key: value" lines that the standard patterns extract.
void register_caraml_actions(jube::ActionRegistry& registry);

/// The figure-of-merit patterns matching the actions' output.
std::vector<jube::Pattern> caraml_patterns();

/// One plotted series of Fig. 2 / Fig. 3: a system tag plus the device
/// subset ("MI250:GCD" uses 4 GCDs, "MI250:GPU" all 8).
struct SystemSeries {
  std::string label;
  std::string tag;
  int devices;  // -1 = all of the node
};

/// The series of Fig. 2 (LLM), in the paper's plotting order.
std::vector<SystemSeries> fig2_series();
/// The series of Fig. 3 (ResNet50 single device; MI250 plotted as GCD & GPU).
std::vector<SystemSeries> fig3_series();

/// Batch-size sweeps used in the evaluation.
std::vector<std::int64_t> fig2_batches();    // 16 .. 4096
std::vector<std::int64_t> fig3_batches();    // 16 .. 2048
std::vector<std::int64_t> table2_batches();  // 64 .. 16384
std::vector<std::int64_t> table3_batches();  // 16 .. 4096
std::vector<std::int64_t> fig4_batches();    // 16 .. 2048

/// Device counts per system for the Fig. 4 heatmaps (incl. multi-node rows).
std::vector<int> fig4_device_counts(const std::string& tag);

}  // namespace caraml::core
