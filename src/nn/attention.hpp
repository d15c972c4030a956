// Multi-head causal self-attention — the transformer core operation the
// paper highlights (quadratic in sequence length, matrix products of token
// representations).
//
// Two interchangeable engines compute the attention itself:
//
//   kFused (default) — flash-attention-style streaming kernel
//     (tensor/fused.hpp): tiled QK^T → mask → online softmax → ·V in one
//     pass, no [T, T] materialization; backward recomputes attention tiles
//     from the cached QKV + per-row log-sum-exp, so the module's cache is
//     O(B·T·C + B·H·T) instead of the head-loop's O(B·H·T²).
//   kHeadLoop — the original per-(b, h) composition of matmul / softmax
//     kernels, kept as the equivalence oracle for tests and benchmarks.
//
// Inference can instead keep K and V per position (forward_cached): a decode
// step then projects one new row and attends it over the cache with the
// fused kernel, instead of recomputing every earlier row.
#pragma once

#include <memory>

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace caraml::nn {

class CausalSelfAttention : public Module {
 public:
  enum class Engine { kFused, kHeadLoop };

  /// max_positions sizes the K/V cache of forward_cached(): the longest
  /// sequence it serves (GPT's block_size). 0 leaves the module without one.
  CausalSelfAttention(std::int64_t embed_dim, std::int64_t num_heads,
                      Rng& rng, std::int64_t max_positions = 0);

  /// input [B, T, C] -> output [B, T, C].
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  /// Inference over positions [pos, pos + T) of one sequence (batch 1),
  /// input [1, T, C] -> output [1, T, C]. The rows' K and V are written into
  /// the cache at those positions, and every row attends over cached
  /// positions [0, its own], so positions [0, pos) must already be cached:
  /// pos == 0 is a prefill, a decode step passes one row at the next
  /// position. Throws if pos lies past the cached positions; backward() and
  /// set_compute_dtype() empty the cache, since the weights or their dtype
  /// may change after them. The cache holds K and V for max_positions
  /// positions (2 · max_positions · C floats), allocated in full by the
  /// first call. Always runs the fused kernel; caches nothing for backward.
  Tensor forward_cached(const Tensor& input, std::int64_t pos);

  std::int64_t num_heads() const { return num_heads_; }

  /// Select the attention engine (affects subsequent forward/backward calls;
  /// a backward must use the same engine as the forward that produced its
  /// caches).
  void set_engine(Engine engine) { engine_ = engine; }
  Engine engine() const { return engine_; }

  /// Run the QKV and output projections in the given precision (kF32 or
  /// kBf16; the attention core itself — QK^T, softmax, ·V — stays fp32).
  /// kI8 is rejected: the projections sit on the training path.
  void set_compute_dtype(tensor::DType dtype);

 private:
  std::int64_t embed_dim_;
  std::int64_t num_heads_;
  std::int64_t head_dim_;
  std::int64_t max_positions_;
  Engine engine_ = Engine::kFused;
  std::shared_ptr<Linear> qkv_;
  std::shared_ptr<Linear> proj_;

  // Forward caches.
  std::int64_t batch_ = 0;
  std::int64_t time_ = 0;
  Tensor cached_qkv_;        // [B*T, 3C]
  Tensor cached_heads_out_;  // [B*T, C]   (fused engine)
  Tensor cached_lse_;        // [B*H, T]   (fused engine)
  std::vector<Tensor> cached_att_;  // per (b, h): [T, T] (head-loop engine)

  // forward_cached() state: K and V of batch 1, [max_positions, C] each,
  // valid for positions [0, cached_positions_).
  Tensor k_cache_;
  Tensor v_cache_;
  std::int64_t cached_positions_ = 0;
};

}  // namespace caraml::nn
