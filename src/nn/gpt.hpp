// A real, trainable GPT decoder — the miniature counterpart of the
// Megatron-LM model CARAML's LLM benchmark trains (paper §III-A1).
//
// Architecture: token + learned positional embeddings, pre-norm transformer
// blocks (causal attention + GELU MLP with residual connections), final
// layer norm, and an untied LM head. Sized down for CPU execution; the
// paper-scale 800M/13B/175B variants are handled analytically by
// models::GptConfig + the simulator.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"

namespace caraml::nn {

struct GptModelConfig {
  std::int64_t vocab_size = 256;
  std::int64_t block_size = 64;   // maximum sequence length
  std::int64_t num_layers = 2;
  std::int64_t num_heads = 2;
  std::int64_t embed_dim = 32;
  float dropout = 0.0f;  // MLP output dropout (fused epilogue; 0 disables)
};

/// One pre-norm transformer block: x += attn(ln1(x)); x += mlp(ln2(x)).
///
/// The MLP is two fused-epilogue Linears: fc_in carries a bias+GELU epilogue
/// (no separate activation module or extra pass over the [N, 4C]
/// intermediate), fc_out optionally a bias+dropout epilogue.
class TransformerBlock : public Module {
 public:
  /// max_positions sizes the attention's K/V cache (see forward_cached).
  TransformerBlock(std::int64_t embed_dim, std::int64_t num_heads, Rng& rng,
                   float dropout = 0.0f, std::int64_t max_positions = 0);

  Tensor forward(const Tensor& input) override;   // [B, T, C]
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  /// Inference over positions [pos, pos + T) of one sequence, input
  /// [1, T, C]: the same block body as forward(), with attention served from
  /// its K/V cache (CausalSelfAttention::forward_cached) and the MLP run
  /// without dropout. Nothing is kept for backward.
  Tensor forward_cached(const Tensor& input, std::int64_t pos);

  /// kBf16: attention projections + both MLP linears run bf16 (training-
  /// capable, fp32 master weights). kI8: the two MLP linears run int8
  /// inference GEMMs while attention stays fp32 (the int8 path has no
  /// backward). kF32 restores the original path everywhere.
  void set_compute_dtype(tensor::DType dtype);

 private:
  /// The block body: a training forward without `pos`, inference over
  /// cached positions [*pos, *pos + T) with it.
  Tensor run(const Tensor& input, std::optional<std::int64_t> pos);

  std::int64_t embed_dim_;
  std::shared_ptr<LayerNorm> ln1_;
  std::shared_ptr<CausalSelfAttention> attn_;
  std::shared_ptr<LayerNorm> ln2_;
  std::shared_ptr<Linear> fc_in_;   // bias+GELU epilogue
  std::shared_ptr<Linear> fc_out_;  // bias(+dropout) epilogue
  std::int64_t batch_ = 0, time_ = 0;
};

class GptModel : public Module {
 public:
  GptModel(GptModelConfig config, Rng& rng);

  const GptModelConfig& config() const { return config_; }

  /// tokens [B, T] (ids as floats) -> logits [B*T, vocab].
  Tensor forward(const Tensor& tokens) override;
  Tensor backward(const Tensor& grad_logits) override;
  std::vector<Parameter*> parameters() override;

  /// One full training step: forward, cross-entropy against `targets`
  /// (shifted tokens, B*T ids), backward. Returns the loss. Gradients are
  /// accumulated (call optimizer.zero_grad() between steps).
  float train_step(const Tensor& tokens,
                   const std::vector<std::int64_t>& targets);

  /// Logits [1, vocab] of the last of `ids`, which sit at positions
  /// [pos, pos + ids.size()) of one sequence. Only these rows run through
  /// the blocks, each attending over its layer's K/V cache, which must hold
  /// positions [0, pos) and receives the new rows' K and V; pos == 0 is a
  /// prefill. Throws if pos lies past the cached positions (none are cached
  /// after backward() or set_compute_dtype()). The final LayerNorm and the
  /// LM head see the last row only.
  /// Inference: dropout is off and nothing is kept for backward. Equal to
  /// forward()'s last row over the whole sequence up to summation order.
  Tensor forward_cached(const std::vector<std::int64_t>& ids,
                        std::int64_t pos);

  /// Autoregressive sampling: extend `prompt` by `new_tokens` ids.
  /// temperature == 0 means greedy decoding; otherwise softmax sampling at
  /// the given temperature. Dropout is off and the training mask stream is
  /// untouched.
  ///
  /// The prompt's last block_size ids are prefilled once (the
  /// TELEMETRY_SPAN "prefill", which also draws the first id); every later
  /// id is one forward_cached row at the next position (span "decode").
  /// Once the sequence is longer than block_size the context window slides,
  /// every id's learned position shifts, and each such step rebuilds the
  /// caches with a prefill of the last block_size ids.
  std::vector<std::int64_t> generate(const std::vector<std::int64_t>& prompt,
                                     std::int64_t new_tokens,
                                     float temperature, Rng& rng);

  /// Propagate a compute precision to every block (and, for kBf16, the LM
  /// head). kBf16 keeps the model trainable with fp32 master weights; kI8
  /// switches the MLP linears of each block to inference-only int8 GEMMs
  /// (train_step will CHECK-fail); kF32 restores the default path.
  void set_compute_dtype(tensor::DType dtype);
  tensor::DType compute_dtype() const { return compute_dtype_; }

 private:
  /// Token plus learned positional embeddings of tokens [B, T] at positions
  /// [pos, pos + T): [B, T, C].
  Tensor embed(const Tensor& tokens, std::int64_t pos);

  GptModelConfig config_;
  std::shared_ptr<Embedding> tok_emb_;
  Parameter pos_emb_;  // [block_size, C]
  std::vector<std::shared_ptr<TransformerBlock>> blocks_;
  std::shared_ptr<LayerNorm> ln_f_;
  std::shared_ptr<Linear> lm_head_;
  tensor::DType compute_dtype_ = tensor::DType::kF32;
  std::int64_t batch_ = 0, time_ = 0;
};

}  // namespace caraml::nn
