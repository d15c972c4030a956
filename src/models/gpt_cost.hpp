// Analytic cost model of GPT decoder training, following the Megatron-LM
// accounting (Narayanan et al., "Efficient large-scale language model
// training on GPU clusters using Megatron-LM", the paper's reference [2]).
//
// CARAML trains a GPT model from scratch on tokenized OSCAR data; the paper
// uses 117M (Graphcore), 800M (NVIDIA/AMD) and provides 13B / 175B configs.
// This model supplies FLOPs, parameter counts, memory footprints and
// communication volumes to the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "tensor/dtype.hpp"

namespace caraml::models {

/// Cost traits of a compute precision: the one table the training memory
/// and time models, the layout analyzer and the serving model all key off.
struct DTypeCost {
  double value_bytes;  ///< per weight/activation value (per parameter served)
  double kv_bytes;     ///< per cached K/V element when serving
  double peak_scale;   ///< multiplier on DeviceSpec::peak_fp16_flops
  bool trainable;
};

/// fp32 GEMMs run at half the bf16 tensor-core rate on every Table I system;
/// int8 weights stream at a quarter of fp32 and its tensor pipes run at twice
/// the fp16 rate, while the KV cache stays 2-byte (the kernel library's int8
/// path quantizes weights and activations, not KV history).
inline DTypeCost dtype_cost(tensor::DType dtype) {
  switch (dtype) {
    case tensor::DType::kF32: return {4.0, 4.0, 0.5, true};
    case tensor::DType::kBf16: return {2.0, 2.0, 1.0, true};
    case tensor::DType::kI8: return {1.0, 2.0, 2.0, false};
  }
  return {2.0, 2.0, 1.0, true};
}

/// GPT decoder architecture description.
struct GptConfig {
  std::string name;
  int num_layers = 0;
  int hidden_size = 0;
  int num_heads = 0;
  int seq_length = 0;
  int vocab_size = 50257;  // GPT-2 tokenizer (paper §III-A1)

  // Optimization features the paper's Megatron-LM setup uses (§III-A1).
  bool flash_attention = true;
  bool rotary_embeddings = true;
  bool distributed_optimizer = true;
  bool activation_recompute = false;  // full recompute off by default
  bool sequence_parallel = false;

  /// Training precision; bf16 is the paper's mixed precision.
  tensor::DType dtype = tensor::DType::kBf16;

  /// Presets matching the paper's model sizes.
  static GptConfig gpt_117m();  // GPT-2 small; Graphcore benchmark
  static GptConfig gpt_800m();  // NVIDIA / AMD benchmark (16 x 2048)
  static GptConfig gpt_13b();
  static GptConfig gpt_175b();

  /// Bytes per weight/activation value on the training hot path. Every
  /// bytes-per-value derivation (model state, activations, comm volume) keys
  /// off this instead of a hardcoded constant so `--dtype fp32` and `dtype:`
  /// layout entries change exactly the places a real precision switch would.
  double training_value_bytes() const { return dtype_cost(dtype).value_bytes; }

  /// Scale on the device's fp16/bf16 tensor peak for the training precision.
  double peak_flops_scale() const { return dtype_cost(dtype).peak_scale; }

  /// Transformer-block parameters: 12 * L * h^2 (+ biases/LN, included).
  double transformer_parameters() const;
  /// Embedding (+ LM head, tied) parameters: V * h.
  double embedding_parameters() const;
  double total_parameters() const;

  /// FLOPs for one token, forward pass only:
  /// 24*L*h^2 * (1 + s/(6h) + V/(16*L*h)) per token (Megatron formula).
  double flops_per_token_forward() const;

  /// Training FLOPs per token: 3x forward (backward = 2x forward), plus one
  /// extra forward when full activation recomputation is on.
  double flops_per_token_train() const;

  /// FLOPs per iteration for a given global batch (in sequences).
  double flops_per_iteration(std::int64_t global_batch) const;
  std::int64_t tokens_per_iteration(std::int64_t global_batch) const;
};

/// The presets by the tag runs name them by.
inline constexpr std::pair<const char*, GptConfig (*)()> kGptPresets[] = {
    {"117M", &GptConfig::gpt_117m},
    {"800M", &GptConfig::gpt_800m},
    {"13B", &GptConfig::gpt_13b},
    {"175B", &GptConfig::gpt_175b}};

/// Memory footprint of one model replica shard.
struct GptMemoryModel {
  GptConfig config;
  int tensor_parallel = 1;
  int pipeline_parallel = 1;
  int data_parallel = 1;
  int micro_batch = 1;

  /// Weights + gradients + optimizer state per device, bytes.
  /// Mixed-precision Adam: 2 (fp16 weights) + 4 (fp32 grads) + 8 (Adam m,v)
  /// + 4 (fp32 master weights) = 18 bytes/param; the distributed optimizer
  /// shards the 12 bytes of optimizer+master state across data-parallel
  /// ranks (paper §III-A1 uses distributed optimizers).
  double model_state_bytes() const;

  /// Activation bytes per device for one micro-batch, following Korthikanti
  /// et al. (paper reference [4]): ~s*b*h*(34 + 5*a*s/h) bytes per layer
  /// without optimizations; flash attention + sequence parallelism reduce the
  /// attention term.
  double activation_bytes() const;

  /// Fixed framework overhead (CUDA context, NCCL buffers, workspace).
  double workspace_bytes() const { return 4.0e9; }

  double total_bytes() const {
    return model_state_bytes() + activation_bytes() + workspace_bytes();
  }

  /// Gradient bytes all-reduced (or reduce-scattered) per iteration.
  double gradient_comm_bytes() const;
};

}  // namespace caraml::models
