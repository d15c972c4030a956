#include "nn/attention.hpp"

#include <algorithm>
#include <string>

#include "tensor/fused.hpp"
#include "util/error.hpp"

namespace caraml::nn {

using tensor::Tensor;

CausalSelfAttention::CausalSelfAttention(std::int64_t embed_dim,
                                         std::int64_t num_heads, Rng& rng,
                                         std::int64_t max_positions)
    : embed_dim_(embed_dim),
      num_heads_(num_heads),
      max_positions_(max_positions),
      qkv_(std::make_shared<Linear>(embed_dim, 3 * embed_dim, rng)),
      proj_(std::make_shared<Linear>(embed_dim, embed_dim, rng)) {
  CARAML_CHECK_MSG(embed_dim % num_heads == 0,
                   "embed_dim must be divisible by num_heads");
}

void CausalSelfAttention::set_compute_dtype(tensor::DType dtype) {
  CARAML_CHECK_MSG(dtype != tensor::DType::kI8,
                   "attention projections sit on the training path; int8 is "
                   "inference-only (use kF32 or kBf16)");
  qkv_->set_compute_dtype(dtype);
  proj_->set_compute_dtype(dtype);
  cached_positions_ = 0;  // cached K/V were computed at the old dtype
}

Tensor CausalSelfAttention::forward(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 3 && input.dim(2) == embed_dim_,
                   "attention expects [B, T, C]");
  batch_ = input.dim(0);
  time_ = input.dim(1);
  const std::int64_t b_count = batch_, t_count = time_, c = embed_dim_;

  const Tensor flat = input.reshape({b_count * t_count, c});
  cached_qkv_ = qkv_->forward(flat);  // [B*T, 3C]

  cached_heads_out_ = Tensor({b_count * t_count, c});
  cached_lse_ = Tensor({b_count * num_heads_, t_count});
  tensor::fused::causal_attention_forward(cached_qkv_.data(), b_count, t_count,
                                          c, num_heads_,
                                          cached_heads_out_.data(),
                                          cached_lse_.data());
  Tensor out = proj_->forward(cached_heads_out_);  // [B*T, C]
  return out.reshape({b_count, t_count, c});
}

Tensor CausalSelfAttention::forward_cached(const Tensor& input,
                                           std::int64_t pos) {
  CARAML_CHECK_MSG(input.rank() == 3 && input.dim(0) == 1 &&
                       input.dim(2) == embed_dim_,
                   "cached attention expects [1, T, C]");
  const std::int64_t t_count = input.dim(1), c = embed_dim_;
  const std::int64_t time = pos + t_count;  // key range [0, time)
  CARAML_CHECK_MSG(pos >= 0 && time <= max_positions_,
                   "cached attention: positions [" + std::to_string(pos) +
                       ", " + std::to_string(time) +
                       ") exceed the K/V cache of " +
                       std::to_string(max_positions_));
  CARAML_CHECK_MSG(pos <= cached_positions_,
                   "cached attention: position " + std::to_string(pos) +
                       " follows only " + std::to_string(cached_positions_) +
                       " cached positions (prefill from position 0 first)");
  if (k_cache_.empty()) {
    k_cache_ = Tensor({max_positions_, c});
    v_cache_ = Tensor({max_positions_, c});
  }

  const Tensor qkv = qkv_->infer(input.reshape({t_count, c}));  // [T, 3C]
  for (std::int64_t t = 0; t < t_count; ++t) {
    const float* row = qkv.data() + t * 3 * c;
    std::copy_n(row + c, c, k_cache_.data() + (pos + t) * c);
    std::copy_n(row + 2 * c, c, v_cache_.data() + (pos + t) * c);
  }
  cached_positions_ = time;
  Tensor heads_out({t_count, c});
  Tensor lse({num_heads_, t_count});
  tensor::fused::causal_attention_forward(
      qkv.data(), 3 * c, k_cache_.data(), v_cache_.data(), c, 1, t_count,
      time, c, num_heads_, heads_out.data(), lse.data());
  return proj_->infer(heads_out).reshape({1, t_count, c});
}

Tensor CausalSelfAttention::backward(const Tensor& grad_output) {
  const std::int64_t b_count = batch_, t_count = time_, c = embed_dim_;
  CARAML_CHECK_MSG(grad_output.rank() == 3 && grad_output.dim(0) == b_count &&
                       grad_output.dim(1) == t_count && grad_output.dim(2) == c,
                   "attention backward shape mismatch");
  cached_positions_ = 0;  // an optimizer step may now change the weights
  const Tensor g_flat = grad_output.reshape({b_count * t_count, c});
  const Tensor d_heads = proj_->backward(g_flat);  // [B*T, C]

  Tensor d_qkv({b_count * t_count, 3 * c});  // zero-initialized
  tensor::fused::causal_attention_backward(
      cached_qkv_.data(), cached_heads_out_.data(), d_heads.data(),
      cached_lse_.data(), b_count, t_count, c, num_heads_, d_qkv.data());
  Tensor d_input = qkv_->backward(d_qkv);  // [B*T, C]
  return d_input.reshape({b_count, t_count, c});
}

std::vector<Parameter*> CausalSelfAttention::parameters() {
  std::vector<Parameter*> out = qkv_->parameters();
  for (Parameter* p : proj_->parameters()) out.push_back(p);
  return out;
}

}  // namespace caraml::nn
