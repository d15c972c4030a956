#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "tensor/fused.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caraml::nn {

using tensor::Tensor;

CausalSelfAttention::CausalSelfAttention(std::int64_t embed_dim,
                                         std::int64_t num_heads, Rng& rng,
                                         std::int64_t max_positions)
    : embed_dim_(embed_dim),
      num_heads_(num_heads),
      head_dim_(embed_dim / num_heads),
      max_positions_(max_positions),
      qkv_(std::make_shared<Linear>(embed_dim, 3 * embed_dim, rng)),
      proj_(std::make_shared<Linear>(embed_dim, embed_dim, rng)) {
  CARAML_CHECK_MSG(embed_dim % num_heads == 0,
                   "embed_dim must be divisible by num_heads");
}

namespace {

// Extract head slice q/k/v [T, hd] for (b, h) from the packed qkv [B*T, 3C].
Tensor head_slice(const Tensor& qkv, std::int64_t b, std::int64_t h,
                  std::int64_t which, std::int64_t time, std::int64_t embed,
                  std::int64_t head_dim) {
  Tensor out({time, head_dim});
  const std::int64_t base_col = which * embed + h * head_dim;
  const std::int64_t row_stride = 3 * embed;
  for (std::int64_t t = 0; t < time; ++t) {
    const float* src = qkv.data() + (b * time + t) * row_stride + base_col;
    float* dst = out.data() + t * head_dim;
    for (std::int64_t j = 0; j < head_dim; ++j) dst[j] = src[j];
  }
  return out;
}

// Scatter-add a head gradient [T, hd] back into d_qkv [B*T, 3C].
void head_scatter(Tensor& d_qkv, const Tensor& grad, std::int64_t b,
                  std::int64_t h, std::int64_t which, std::int64_t time,
                  std::int64_t embed, std::int64_t head_dim) {
  const std::int64_t base_col = which * embed + h * head_dim;
  const std::int64_t row_stride = 3 * embed;
  for (std::int64_t t = 0; t < time; ++t) {
    float* dst = d_qkv.data() + (b * time + t) * row_stride + base_col;
    const float* src = grad.data() + t * head_dim;
    for (std::int64_t j = 0; j < head_dim; ++j) dst[j] += src[j];
  }
}

}  // namespace

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

  Tensor heads_out({b_count * t_count, c});

  if (engine_ == Engine::kFused) {
    cached_lse_ = Tensor({b_count * num_heads_, t_count});
    tensor::fused::causal_attention_forward(cached_qkv_.data(), b_count,
                                            t_count, c, num_heads_,
                                            heads_out.data(),
                                            cached_lse_.data());
    cached_att_.clear();
    cached_heads_out_ = std::move(heads_out);
    Tensor out = proj_->forward(cached_heads_out_);  // [B*T, C]
    return out.reshape({b_count, t_count, c});
  }

  // Head-loop engine: dense per-(b, h) composition of the generic kernels.
  // Pre-size for indexed assignment: the head loop below runs in parallel
  // and push_back would race.
  cached_att_.assign(static_cast<std::size_t>(b_count * num_heads_), Tensor());
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Each (b, h) pair reads its own qkv slice and writes a disjoint column
  // block of heads_out, so the flattened head loop parallelizes cleanly; the
  // tensor kernels it calls run inline on worker threads.
  caraml::parallel_for_range(
      0, static_cast<std::size_t>(b_count * num_heads_), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::int64_t b =
              static_cast<std::int64_t>(idx) / num_heads_;
          const std::int64_t h = static_cast<std::int64_t>(idx) % num_heads_;
          const Tensor q =
              head_slice(cached_qkv_, b, h, 0, t_count, c, head_dim_);
          const Tensor k =
              head_slice(cached_qkv_, b, h, 1, t_count, c, head_dim_);
          const Tensor v =
              head_slice(cached_qkv_, b, h, 2, t_count, c, head_dim_);

          Tensor scores = tensor::matmul_nt(q, k);  // [T, T]
          for (std::int64_t i = 0; i < t_count; ++i) {
            for (std::int64_t j = 0; j < t_count; ++j) {
              if (j > i) {
                scores[i * t_count + j] = -1e30f;  // causal mask
              } else {
                scores[i * t_count + j] *= scale;
              }
            }
          }
          Tensor att = tensor::softmax_rows(scores);  // [T, T]
          Tensor y = tensor::matmul(att, v);          // [T, hd]
          cached_att_[idx] = std::move(att);

          for (std::int64_t t = 0; t < t_count; ++t) {
            float* dst =
                heads_out.data() + (b * t_count + t) * c + h * head_dim_;
            const float* src = y.data() + t * head_dim_;
            for (std::int64_t j = 0; j < head_dim_; ++j) dst[j] = src[j];
          }
        }
      });

  Tensor out = proj_->forward(heads_out);  // [B*T, C]
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
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  if (engine_ == Engine::kFused) {
    CARAML_CHECK_MSG(!cached_lse_.empty(),
                     "fused attention backward requires a fused forward");
    tensor::fused::causal_attention_backward(
        cached_qkv_.data(), cached_heads_out_.data(), d_heads.data(),
        cached_lse_.data(), b_count, t_count, c, num_heads_, d_qkv.data());
    Tensor d_input = qkv_->backward(d_qkv);  // [B*T, C]
    return d_input.reshape({b_count, t_count, c});
  }

  CARAML_CHECK_MSG(
      cached_att_.size() == static_cast<std::size_t>(b_count * num_heads_),
      "head-loop attention backward requires a head-loop forward");

  // Parallel over (b, h): each pair scatters into disjoint (row, column)
  // blocks of d_qkv, so no accumulation races.
  caraml::parallel_for_range(
      0, static_cast<std::size_t>(b_count * num_heads_), 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::int64_t b =
              static_cast<std::int64_t>(idx) / num_heads_;
          const std::int64_t h = static_cast<std::int64_t>(idx) % num_heads_;
          const Tensor q =
              head_slice(cached_qkv_, b, h, 0, t_count, c, head_dim_);
          const Tensor k =
              head_slice(cached_qkv_, b, h, 1, t_count, c, head_dim_);
          const Tensor v =
              head_slice(cached_qkv_, b, h, 2, t_count, c, head_dim_);
          const Tensor& att = cached_att_[idx];

          // dY per head [T, hd] from d_heads columns.
          Tensor dy({t_count, head_dim_});
          for (std::int64_t t = 0; t < t_count; ++t) {
            const float* src =
                d_heads.data() + (b * t_count + t) * c + h * head_dim_;
            float* dst = dy.data() + t * head_dim_;
            for (std::int64_t j = 0; j < head_dim_; ++j) dst[j] = src[j];
          }

          // y = att @ v  =>  datt = dy @ v^T ; dv = att^T @ dy
          Tensor datt = tensor::matmul_nt(dy, v);  // [T, T]
          Tensor dv = tensor::matmul_tn(att, dy);  // [T, hd]

          // Softmax backward (masked entries have att == 0 so they drop out).
          Tensor dscores = tensor::softmax_rows_backward(att, datt);  // [T, T]
          // Apply mask + scale: masked entries contribute no gradient.
          for (std::int64_t i = 0; i < t_count; ++i) {
            for (std::int64_t j = 0; j < t_count; ++j) {
              if (j > i) {
                dscores[i * t_count + j] = 0.0f;
              } else {
                dscores[i * t_count + j] *= scale;
              }
            }
          }
          // scores = q @ k^T  =>  dq = dscores @ k ; dk = dscores^T @ q
          Tensor dq = tensor::matmul(dscores, k);
          Tensor dk = tensor::matmul_tn(dscores, q);

          head_scatter(d_qkv, dq, b, h, 0, t_count, c, head_dim_);
          head_scatter(d_qkv, dk, b, h, 1, t_count, c, head_dim_);
          head_scatter(d_qkv, dv, b, h, 2, t_count, c, head_dim_);
        }
      });

  Tensor d_input = qkv_->backward(d_qkv);  // [B*T, C]
  return d_input.reshape({b_count, t_count, c});
}

std::vector<Parameter*> CausalSelfAttention::parameters() {
  std::vector<Parameter*> out = qkv_->parameters();
  for (Parameter* p : proj_->parameters()) out.push_back(p);
  return out;
}

}  // namespace caraml::nn
