#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "tensor/fused.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace caraml::nn {

using tensor::Shape;

namespace {
// Row-count grain for parallel per-row loops, targeting ~16K elements/chunk.
std::int64_t row_grain(std::int64_t cols) {
  return std::max<std::int64_t>(1, (1 << 14) / std::max<std::int64_t>(1, cols));
}

// Per-chunk partial sums of a parallel_for_range reduction over `count`
// rows. parallel_for_range keeps chunk boundaries grain-aligned, so
// lo / grain names a chunk's slot; merging the claimed slots in slot order
// makes the result independent of which chunk finishes first.
class ChunkPartials {
 public:
  ChunkPartials(std::size_t count, std::size_t grain, std::int64_t width)
      : grain_(grain), width_(width), slots_((count + grain - 1) / grain) {}

  /// The zeroed [width] partial of the chunk that starts at row `lo`.
  float* slot(std::size_t lo) {
    std::vector<float>& s = slots_[lo / grain_];
    s.assign(static_cast<std::size_t>(width_), 0.0f);
    return s.data();
  }

  /// Call merge(partial) for each claimed slot, in chunk order.
  template <typename F>
  void for_each(F&& merge) const {
    for (const std::vector<float>& s : slots_) {
      if (!s.empty()) merge(s.data());
    }
  }

 private:
  std::size_t grain_;
  std::int64_t width_;
  std::vector<std::vector<float>> slots_;
};

}  // namespace

// --- Linear ------------------------------------------------------------------

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias, float init_std)
    : weight_("weight", Tensor::randn({out_features, in_features}, rng,
                                      init_std)),
      bias_("bias", Tensor::zeros({out_features})),
      has_bias_(bias) {}

void Linear::set_gelu() {
  epilogue_ = Epilogue::kGelu;
  dropout_p_ = 0.0f;
}

void Linear::set_dropout(float p, std::uint64_t seed) {
  CARAML_CHECK_MSG(p < 1.0f, "dropout rate must be < 1");
  if (p <= 0.0f) {
    epilogue_ = Epilogue::kNone;
    dropout_p_ = 0.0f;
    return;
  }
  epilogue_ = Epilogue::kDropout;
  dropout_p_ = p;
  dropout_rng_.reseed(seed);
}

void Linear::set_compute_dtype(tensor::DType dtype) {
  if (dtype == tensor::DType::kI8) {
    CARAML_CHECK_MSG(epilogue_ != Epilogue::kDropout,
                     "int8 Linear is inference-only; dropout unsupported");
  }
  compute_dtype_ = dtype;
  weight_i8_valid_ = false;  // weights may have moved since the last quantize
}

void Linear::calibrate_int8(const Tensor& sample_input) {
  const float* __restrict p = sample_input.data();
  float absmax = calibrated_absmax_;
  const std::int64_t count = sample_input.numel();
  for (std::int64_t i = 0; i < count; ++i) {
    absmax = std::max(absmax, std::fabs(p[i]));
  }
  calibrated_absmax_ = absmax;
}

Tensor Linear::forward(const Tensor& input) { return run(input, true); }

Tensor Linear::infer(const Tensor& input) { return run(input, false); }

const Tensor& Linear::draw_dropout_mask(std::int64_t n) {
  // Fresh inverted-dropout mask per forward: kept slots carry 1/(1-p) so the
  // activation's expectation is unchanged.
  cached_mask_ = Tensor({n, weight_.value.dim(0)});
  const float inv_keep = 1.0f / (1.0f - dropout_p_);
  float* __restrict pm = cached_mask_.data();
  const std::int64_t count = cached_mask_.numel();
  for (std::int64_t i = 0; i < count; ++i) {
    pm[i] = dropout_rng_.next_double() < dropout_p_ ? 0.0f : inv_keep;
  }
  return cached_mask_;
}

Tensor Linear::run(const Tensor& input, bool train) {
  CARAML_CHECK_MSG(input.rank() == 2, "Linear expects [N, in]");
  CARAML_CHECK_MSG(input.dim(1) == weight_.value.dim(1),
                   "Linear input feature mismatch");
  const bool int8 = compute_dtype_ == tensor::DType::kI8;
  CARAML_CHECK_MSG(!(int8 && epilogue_ == Epilogue::kDropout),
                   "int8 Linear is inference-only; dropout unsupported");
  const Tensor* bias = has_bias_ ? &bias_.value : nullptr;
  tensor::fused::LinearEpilogue epilogue;
  epilogue.gelu = epilogue_ == Epilogue::kGelu;
  if (train && epilogue.gelu) epilogue.pre = &cached_pre_;  // for backward
  if (train && epilogue_ == Epilogue::kDropout)
    epilogue.dropout_mask = &draw_dropout_mask(input.dim(0));
  if (compute_dtype_ == tensor::DType::kBf16) {
    // Re-round the fp32 master weights every forward (the optimizer moves
    // them between steps); backward reuses the same rounded copies for
    // dW and dX so forward and backward see one consistent bf16 snapshot.
    weight_bf16_ = tensor::Bf16Tensor::from_float(weight_.value);
    tensor::Bf16Tensor x = tensor::Bf16Tensor::from_float(input);
    Tensor out = tensor::fused::linear(x, weight_bf16_, bias, epilogue);
    if (train) cached_input_bf16_ = std::move(x);
    return out;
  }
  if (int8) {
    if (!weight_i8_valid_) {
      weight_i8_ = tensor::quantize_per_channel_rows(weight_.value);
      weight_i8_valid_ = true;
    }
    const float scale =
        calibrated_absmax_ > 0.0f
            ? calibrated_absmax_ / 127.0f
            : tensor::absmax_scale(input.data(), input.numel());
    return tensor::fused::linear(tensor::quantize_with_scale(input, scale),
                                 weight_i8_, bias, epilogue);
  }
  if (train) cached_input_ = input;
  return tensor::fused::linear(input, weight_.value, bias, epilogue);
}

Tensor Linear::backward(const Tensor& grad_output) {
  CARAML_CHECK_MSG(compute_dtype_ != tensor::DType::kI8,
                   "Linear: int8 path is inference-only (no backward)");
  const bool bf16 = compute_dtype_ == tensor::DType::kBf16;
  const std::int64_t cached_rows =
      bf16 ? cached_input_bf16_.dim(0) : cached_input_.dim(0);
  CARAML_CHECK_MSG(grad_output.rank() == 2 &&
                       grad_output.dim(0) == cached_rows &&
                       grad_output.dim(1) == weight_.value.dim(0),
                   "Linear backward shape mismatch");
  // Fold the epilogue's gradient into g first: for kGelu the layer's output
  // was gelu(pre), so dL/dpre = g ∘ gelu'(pre); for kDropout the mask is the
  // (elementwise) Jacobian.
  Tensor g_epi;
  const Tensor* g_ptr = &grad_output;
  if (epilogue_ == Epilogue::kGelu) {
    g_epi = tensor::gelu_backward(cached_pre_, grad_output);
    g_ptr = &g_epi;
  } else if (epilogue_ == Epilogue::kDropout) {
    g_epi = tensor::mul(grad_output, cached_mask_);
    g_ptr = &g_epi;
  }
  const Tensor& g = *g_ptr;
  // In bf16 mode both gradient GEMMs run on bf16-rounded operands (the same
  // weight/input snapshot the forward used) with fp32 accumulation; the
  // gradients themselves stay fp32.
  tensor::Bf16Tensor g_bf16;
  if (bf16) g_bf16 = tensor::Bf16Tensor::from_float(g);
  // dW [out,in] += g^T [out,N] * x [N,in]
  Tensor dw = bf16 ? tensor::matmul_tn_bf16(g_bf16, cached_input_bf16_)
                   : tensor::matmul_tn(g, cached_input_);
  tensor::add_inplace(weight_.grad, dw);
  if (has_bias_) {
    const std::int64_t n = g.dim(0), c = g.dim(1);
    const float* __restrict pg = g.data();
    const std::size_t grain = static_cast<std::size_t>(row_grain(c));
    ChunkPartials partials(static_cast<std::size_t>(n), grain, c);
    parallel_for_range(
        0, static_cast<std::size_t>(n), grain,
        [&, pg, c](std::size_t lo, std::size_t hi) {
          float* __restrict pl = partials.slot(lo);
          for (std::size_t i = lo; i < hi; ++i) {
            const float* __restrict row =
                pg + static_cast<std::int64_t>(i) * c;
            for (std::int64_t j = 0; j < c; ++j) pl[j] += row[j];
          }
        });
    float* __restrict pbg = bias_.grad.data();
    partials.for_each([&](const float* pl) {
      for (std::int64_t j = 0; j < c; ++j) pbg[j] += pl[j];
    });
  }
  // dX [N,in] = g [N,out] * W [out,in]
  if (bf16) return tensor::matmul_bf16(g_bf16, weight_bf16_);
  return tensor::matmul(g, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

// --- Embedding ---------------------------------------------------------------

Embedding::Embedding(std::int64_t vocab, std::int64_t dim, Rng& rng,
                     float init_std)
    : weight_("embedding", Tensor::randn({vocab, dim}, rng, init_std)) {}

Tensor Embedding::forward(const Tensor& input) {
  const std::int64_t n = input.numel();
  const std::int64_t d = dim();
  cached_ids_.resize(static_cast<std::size_t>(n));
  Tensor out({n, d});
  for (std::int64_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int64_t>(input[i]);
    CARAML_CHECK_MSG(id >= 0 && id < vocab(), "token id out of range");
    cached_ids_[static_cast<std::size_t>(i)] = id;
    const float* src = weight_.value.data() + id * d;
    float* dst = out.data() + i * d;
    for (std::int64_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  return out;
}

Tensor Embedding::backward(const Tensor& grad_output) {
  const std::int64_t n = static_cast<std::int64_t>(cached_ids_.size());
  const std::int64_t d = dim();
  CARAML_CHECK_MSG(grad_output.rank() == 2 && grad_output.dim(0) == n &&
                       grad_output.dim(1) == d,
                   "Embedding backward shape mismatch");
  for (std::int64_t i = 0; i < n; ++i) {
    float* dst = weight_.grad.data() + cached_ids_[static_cast<std::size_t>(i)] * d;
    const float* src = grad_output.data() + i * d;
    for (std::int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
  return Tensor();
}

std::vector<Parameter*> Embedding::parameters() { return {&weight_}; }

// --- LayerNorm ---------------------------------------------------------------

LayerNorm::LayerNorm(std::int64_t features, float eps)
    : gamma_("gamma", Tensor::ones({features})),
      beta_("beta", Tensor::zeros({features})),
      eps_(eps) {}

Tensor LayerNorm::forward(const Tensor& input) {
  CARAML_CHECK_MSG(input.rank() == 2, "LayerNorm expects [N, C]");
  const std::int64_t n = input.dim(0), c = input.dim(1);
  CARAML_CHECK_MSG(c == gamma_.value.numel(), "LayerNorm feature mismatch");
  cached_input_ = input;
  cached_normalized_ = Tensor({n, c});
  cached_inv_std_.assign(static_cast<std::size_t>(n), 0.0f);
  Tensor out({n, c});
  const float* __restrict src = input.data();
  const float* __restrict pgamma = gamma_.value.data();
  const float* __restrict pbeta = beta_.value.data();
  float* __restrict pnorm = cached_normalized_.data();
  float* __restrict pinv = cached_inv_std_.data();
  float* __restrict po = out.data();
  const float eps = eps_;
  parallel_for_range(
      0, static_cast<std::size_t>(n), static_cast<std::size_t>(row_grain(c)),
      [=](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* __restrict row = src + static_cast<std::int64_t>(i) * c;
          double total = 0.0;
          for (std::int64_t j = 0; j < c; ++j) total += row[j];
          const float mu = static_cast<float>(total / c);
          double var = 0.0;
          for (std::int64_t j = 0; j < c; ++j) {
            const double d = row[j] - mu;
            var += d * d;
          }
          const float inv_std =
              1.0f / std::sqrt(static_cast<float>(var / c) + eps);
          pinv[i] = inv_std;
          float* __restrict norm_row = pnorm + static_cast<std::int64_t>(i) * c;
          float* __restrict out_row = po + static_cast<std::int64_t>(i) * c;
          for (std::int64_t j = 0; j < c; ++j) {
            const float norm = (row[j] - mu) * inv_std;
            norm_row[j] = norm;
            out_row[j] = norm * pgamma[j] + pbeta[j];
          }
        }
      });
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_output) {
  const std::int64_t n = cached_input_.dim(0), c = cached_input_.dim(1);
  CARAML_CHECK_MSG(grad_output.same_shape(cached_input_),
                   "LayerNorm backward shape mismatch");
  Tensor dinput({n, c});
  const float* __restrict pg = grad_output.data();
  const float* __restrict pxn = cached_normalized_.data();
  const float* __restrict pinv = cached_inv_std_.data();
  const float* __restrict pgamma = gamma_.value.data();
  float* __restrict pdx = dinput.data();
  // One slot per chunk holds [dgamma | dbeta]: rows are disjoint across
  // chunks, but gamma and beta are not.
  const std::size_t grain = static_cast<std::size_t>(row_grain(c));
  ChunkPartials partials(static_cast<std::size_t>(n), grain, 2 * c);
  parallel_for_range(
      0, static_cast<std::size_t>(n), grain,
      [&, pg, pxn, pinv, pgamma, pdx, c](std::size_t lo, std::size_t hi) {
        float* __restrict pdg = partials.slot(lo);
        float* __restrict pdb = pdg + c;
        for (std::size_t i = lo; i < hi; ++i) {
          const float inv_std = pinv[i];
          const float* __restrict g = pg + static_cast<std::int64_t>(i) * c;
          const float* __restrict xn = pxn + static_cast<std::int64_t>(i) * c;
          // dnorm = g*gamma; dx = inv_std*(dnorm - mean(dnorm) - xn*mean(dnorm*xn))
          double mean_dnorm = 0.0;
          double mean_dnorm_xn = 0.0;
          for (std::int64_t j = 0; j < c; ++j) {
            const double dn = static_cast<double>(g[j]) * pgamma[j];
            mean_dnorm += dn;
            mean_dnorm_xn += dn * xn[j];
            pdg[j] += g[j] * xn[j];
            pdb[j] += g[j];
          }
          mean_dnorm /= c;
          mean_dnorm_xn /= c;
          float* __restrict dx = pdx + static_cast<std::int64_t>(i) * c;
          for (std::int64_t j = 0; j < c; ++j) {
            const double dn = static_cast<double>(g[j]) * pgamma[j];
            dx[j] = static_cast<float>(
                inv_std * (dn - mean_dnorm - xn[j] * mean_dnorm_xn));
          }
        }
      });
  float* __restrict pgamma_grad = gamma_.grad.data();
  float* __restrict pbeta_grad = beta_.grad.data();
  partials.for_each([&](const float* slot) {
    for (std::int64_t j = 0; j < c; ++j) {
      pgamma_grad[j] += slot[j];
      pbeta_grad[j] += slot[c + j];
    }
  });
  return dinput;
}

std::vector<Parameter*> LayerNorm::parameters() { return {&gamma_, &beta_}; }

// --- activations ---------------------------------------------------------------

Tensor Gelu::forward(const Tensor& input) {
  cached_input_ = input;
  return tensor::gelu(input);
}

Tensor Gelu::backward(const Tensor& grad_output) {
  return tensor::gelu_backward(cached_input_, grad_output);
}

Tensor Relu::forward(const Tensor& input) {
  cached_input_ = input;
  return tensor::relu(input);
}

Tensor Relu::backward(const Tensor& grad_output) {
  return tensor::relu_backward(cached_input_, grad_output);
}

}  // namespace caraml::nn
