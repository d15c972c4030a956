#include "core/inference.hpp"

#include <algorithm>

#include "sim/memory.hpp"
#include "sim/power_model.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "topo/specs.hpp"
#include "util/error.hpp"

namespace caraml::core {

using topo::NodeSpec;
using topo::SystemRegistry;

double kv_cache_bytes(const models::GptConfig& model, std::int64_t batch,
                      std::int64_t tokens, double bytes_per_value) {
  // K and V, per layer: tokens * hidden values of bytes_per_value each.
  return 2.0 * bytes_per_value * model.num_layers *
         static_cast<double>(model.hidden_size) * static_cast<double>(batch) *
         static_cast<double>(tokens);
}

InferenceResult run_llm_inference(const InferenceConfig& config) {
  TELEMETRY_SPAN("inference/run");
  telemetry::Registry::global().counter("inference/runs").add();
  const NodeSpec& node = SystemRegistry::instance().by_tag(config.system_tag);
  CARAML_CHECK_MSG(node.device.arch == topo::ArchClass::kGpuSimd,
                   "inference model targets GPU systems");
  CARAML_CHECK_MSG(config.batch >= 1 && config.prompt_tokens >= 1 &&
                       config.generate_tokens >= 1,
                   "inference config must be positive");

  const auto serving = tensor::dtype_from_string(config.dtype);
  if (!serving) {
    throw InvalidArgument("unknown inference dtype: '" + config.dtype +
                          "' (expected fp32, bf16, or int8)");
  }
  const models::DTypeCost dtype = models::dtype_cost(*serving);

  InferenceResult result;
  result.system = node.display_name;
  result.batch = config.batch;

  const double weight_bytes =
      config.model.total_parameters() * dtype.value_bytes;
  const double peak_flops = node.device.peak_fp16_flops * dtype.peak_scale;
  const std::int64_t max_context =
      config.prompt_tokens + config.generate_tokens;
  result.kv_cache_bytes = kv_cache_bytes(config.model, config.batch,
                                         max_context, dtype.kv_bytes);
  try {
    sim::MemoryTracker tracker(node.device.name,
                               node.device.mem_capacity_bytes);
    tracker.allocate("weights", weight_bytes);
    tracker.allocate("kv_cache", result.kv_cache_bytes);
    tracker.allocate("workspace", 2.0e9);
  } catch (const OutOfMemory& oom) {
    telemetry::Registry::global().counter("inference/oom").add();
    result.oom = true;
    result.oom_message = oom.what();
    return result;
  }

  // --- prefill: compute-bound over batch * prompt tokens --------------------
  const double prefill_flops = config.model.flops_per_token_forward() *
                               static_cast<double>(config.batch) *
                               static_cast<double>(config.prompt_tokens);
  const double prefill_mfu = node.device.max_mfu_gemm;  // large GEMMs
  result.time_to_first_token_s =
      prefill_flops / (peak_flops * prefill_mfu) +
      node.device.launch_overhead_s * config.model.num_layers;

  // --- decode: bandwidth-bound per step ---------------------------------------
  // Each step reads the weights once (batched across users) plus the live KV
  // cache (average fill: prompt + half the generation).
  const double avg_kv = kv_cache_bytes(
      config.model, config.batch,
      config.prompt_tokens + config.generate_tokens / 2, dtype.kv_bytes);
  const double bytes_per_step = weight_bytes + avg_kv;
  const double decode_flops = config.model.flops_per_token_forward() *
                              static_cast<double>(config.batch);
  const double t_compute =
      decode_flops / (peak_flops * node.device.max_mfu_gemm);
  const double t_memory = bytes_per_step / node.device.mem_bandwidth;
  result.decode_time_per_token_s =
      std::max(t_compute, t_memory) +
      node.device.launch_overhead_s * config.model.num_layers;

  result.tokens_per_s_per_user = 1.0 / result.decode_time_per_token_s;
  result.tokens_per_s_total =
      result.tokens_per_s_per_user * static_cast<double>(config.batch);
  result.request_latency_s =
      result.time_to_first_token_s +
      result.decode_time_per_token_s *
          static_cast<double>(config.generate_tokens);

  // --- power / energy -----------------------------------------------------------
  // Decode runs at low arithmetic utilization; prefill near training MFU.
  const double decode_util =
      node.device.max_mfu_gemm * std::min(1.0, t_compute / t_memory);
  const double decode_fraction =
      result.decode_time_per_token_s * config.generate_tokens /
      result.request_latency_s;
  const double p_prefill =
      sim::busy_power_watts(node.device, node.device.max_mfu_gemm);
  const double p_decode = sim::busy_power_watts(node.device, decode_util);
  result.avg_power_w =
      p_decode * decode_fraction + p_prefill * (1.0 - decode_fraction);

  const double request_energy_wh =
      result.avg_power_w * result.request_latency_s / 3600.0;
  const double generated =
      static_cast<double>(config.batch) * config.generate_tokens;
  result.energy_per_1k_tokens_wh = request_energy_wh / generated * 1000.0;

  // One request on the virtual timeline: a prefill span then a decode span,
  // with the matching power levels as a counter series, so analyse-trace can
  // attribute joules to prefill vs decode.
  if (auto& tracer = telemetry::Tracer::global(); tracer.enabled()) {
    const std::uint32_t dev = tracer.track("dev0");
    tracer.add_span("prefill", dev, 0.0, result.time_to_first_token_s);
    tracer.add_span("decode", dev, result.time_to_first_token_s,
                    result.request_latency_s - result.time_to_first_token_s);
    const std::uint32_t power = tracer.track("power");
    tracer.add_counter("power/dev0_w", "watts", power, 0.0, p_prefill);
    tracer.add_counter("power/dev0_w", "watts", power,
                       result.time_to_first_token_s, p_decode);
    tracer.add_counter("power/dev0_w", "watts", power,
                       result.request_latency_s, p_decode);
  }
  return result;
}

}  // namespace caraml::core
