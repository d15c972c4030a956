#include "models/gpt_cost.hpp"

#include <cmath>

#include "util/error.hpp"

namespace caraml::models {

GptConfig GptConfig::gpt_117m() {
  GptConfig c;
  c.name = "GPT-117M";
  c.num_layers = 12;
  c.hidden_size = 768;
  c.num_heads = 12;
  c.seq_length = 1024;
  return c;
}

GptConfig GptConfig::gpt_800m() {
  GptConfig c;
  c.name = "GPT-800M";
  c.num_layers = 16;
  c.hidden_size = 2048;
  c.num_heads = 16;
  c.seq_length = 2048;
  return c;
}

GptConfig GptConfig::gpt_13b() {
  GptConfig c;
  c.name = "GPT-13B";
  c.num_layers = 40;
  c.hidden_size = 5120;
  c.num_heads = 40;
  c.seq_length = 2048;
  return c;
}

GptConfig GptConfig::gpt_175b() {
  GptConfig c;
  c.name = "GPT-175B";
  c.num_layers = 96;
  c.hidden_size = 12288;
  c.num_heads = 96;
  c.seq_length = 2048;
  return c;
}

double GptConfig::transformer_parameters() const {
  const double h = hidden_size;
  const double l = num_layers;
  // Per layer: attention QKV (3h^2) + proj (h^2) + MLP (8h^2) = 12h^2,
  // plus biases and layer norms (~13h per layer).
  return l * (12.0 * h * h + 13.0 * h);
}

double GptConfig::embedding_parameters() const {
  const double h = hidden_size;
  // Token embedding (tied with LM head). Rotary embeddings add no parameters;
  // learned positional embeddings would add s*h.
  double params = static_cast<double>(vocab_size) * h;
  if (!rotary_embeddings) params += static_cast<double>(seq_length) * h;
  return params;
}

double GptConfig::total_parameters() const {
  return transformer_parameters() + embedding_parameters();
}

double GptConfig::flops_per_token_forward() const {
  const double h = hidden_size;
  const double l = num_layers;
  const double s = seq_length;
  const double v = vocab_size;
  // Megatron accounting: 24*l*h^2 per token for the GEMMs, the (s/6h) term
  // for attention score/value products, and the vocabulary projection term.
  return 24.0 * l * h * h *
         (1.0 + s / (6.0 * h) + v / (16.0 * l * h));
}

double GptConfig::flops_per_token_train() const {
  // Backward pass costs 2x forward; full activation recomputation replays
  // one extra forward pass (factor 4 instead of 3).
  const double factor = activation_recompute ? 4.0 : 3.0;
  return factor * flops_per_token_forward();
}

double GptConfig::flops_per_iteration(std::int64_t global_batch) const {
  CARAML_CHECK_MSG(global_batch > 0, "global batch must be positive");
  return flops_per_token_train() *
         static_cast<double>(tokens_per_iteration(global_batch));
}

std::int64_t GptConfig::tokens_per_iteration(std::int64_t global_batch) const {
  return global_batch * static_cast<std::int64_t>(seq_length);
}

double GptMemoryModel::model_state_bytes() const {
  CARAML_CHECK(tensor_parallel >= 1 && pipeline_parallel >= 1 &&
               data_parallel >= 1);
  const double params = config.total_parameters() /
                        (static_cast<double>(tensor_parallel) *
                         static_cast<double>(pipeline_parallel));
  // Resident per-param state: weights at the training precision plus fp32
  // gradients. Shardable state: Adam m,v (8 bytes) plus, under mixed
  // precision only, the fp32 master copy — fp32 training IS the master copy.
  // Mixed: 2 + 4 resident, 12 shardable (18 B/param); fp32: 4 + 4, 8 (16).
  const double resident = config.training_value_bytes() + 4.0;
  const double shardable = config.training_value_bytes() < 4.0 ? 12.0 : 8.0;
  const double optim = config.distributed_optimizer
                           ? shardable / data_parallel
                           : shardable;
  return params * (resident + optim);
}

double GptMemoryModel::activation_bytes() const {
  const double s = config.seq_length;
  const double b = micro_batch;
  const double h = config.hidden_size;
  const double a = config.num_heads;
  const double l = static_cast<double>(config.num_layers) / pipeline_parallel;
  const double t = tensor_parallel;

  // Korthikanti et al. per-layer activation memory for one micro-batch:
  // s*b*h*17 *values* for the GEMM activations — 34 bytes at the paper's
  // bf16/fp16 mixed precision, doubled under fp32 (divided by t with
  // sequence parallelism for the LN/dropout parts; approximate by dividing
  // all) — plus the attention matrix (2 value-sized score/softmax buffers +
  // 1-byte dropout mask = 5*a*s^2*b bytes at 2-byte values) unless flash
  // attention avoids materializing it.
  const double bytes = config.training_value_bytes();
  const double gemm_bytes = 17.0 * bytes;
  double per_layer = gemm_bytes * s * b * h / (config.sequence_parallel ? t : 1.0);
  if (!config.flash_attention) {
    per_layer += (2.0 * bytes + 1.0) * a * s * s * b / t;
  }
  if (config.activation_recompute) {
    // Full recompute stores only the layer inputs.
    per_layer = bytes * s * b * h;
  }
  // Embedding/dropout + final LN + logits buffer (logits stay fp32 at every
  // training precision — they feed the softmax).
  const double head = 4.0 * s * b * config.vocab_size / t / pipeline_parallel;
  return per_layer * l + head;
}

double GptMemoryModel::gradient_comm_bytes() const {
  const double params = config.total_parameters() /
                        (static_cast<double>(tensor_parallel) *
                         static_cast<double>(pipeline_parallel));
  // Distributed optimizer: reduce-scatter fp32 grads + all-gather fp16
  // params; plain DP: all-reduce fp32 grads. Either way ~= params * 4 bytes
  // of traffic entering the ring per rank.
  return params * 4.0;
}

}  // namespace caraml::models
