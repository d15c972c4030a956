// Core dense layers: Linear, Embedding, LayerNorm, activations.
//
// Convention for sequence models: activations are [N, C] matrices where N
// flattens (batch, time); Embedding consumes token ids stored as floats.
#pragma once

#include "nn/module.hpp"
#include "tensor/dtype.hpp"
#include "tensor/quant.hpp"
#include "util/rng.hpp"

namespace caraml::nn {

class Linear : public Module {
 public:
  /// Optional elementwise epilogue fused into the forward GEMM write-back
  /// (tensor::fused): the bias is always fused; kGelu additionally applies
  /// tanh-GELU (replacing a separate Gelu module), kDropout multiplies by a
  /// freshly drawn inverted-dropout keep-mask. Backward folds the epilogue's
  /// gradient into the incoming gradient before the usual dW/db/dX products.
  enum class Epilogue { kNone, kGelu, kDropout };

  /// weight [out, in] initialized N(0, init_std); optional bias.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true, float init_std = 0.02f);

  Tensor forward(const Tensor& input) override;   // [N, in] -> [N, out]
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  /// Inference forward: the same product and epilogue, except that dropout
  /// reduces to its bias — no mask is drawn, so the training mask stream is
  /// left where it was — and nothing is kept for backward.
  Tensor infer(const Tensor& input);

  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

  /// Fuse a tanh-GELU after the bias (out = gelu(x·W^T + b)).
  void set_gelu();
  /// Fuse inverted dropout with rate `p` in [0, 1); a new mask is drawn each
  /// forward from a stream seeded with `seed`. p <= 0 restores kNone.
  void set_dropout(float p, std::uint64_t seed);
  Epilogue epilogue() const { return epilogue_; }

  /// Select the precision of the forward/backward matrix products.
  ///
  /// kF32 (default) is the original path, untouched. kBf16 re-encodes the
  /// fp32 master weights (and the incoming activations) to bf16 each forward
  /// and runs forward *and* backward GEMMs on the bf16 copies with fp32
  /// accumulation — the Parameter values and gradients stay full fp32, so
  /// the optimizer sees ordinary master weights. kI8 is inference-only:
  /// weights quantize symmetrically per output channel once (cached; the
  /// layer assumes frozen weights — any set_compute_dtype call invalidates
  /// the cache), activations per tensor using the calibrated absmax scale
  /// when calibrate_int8() was called, else a dynamic per-forward absmax;
  /// backward CHECK-fails in kI8 mode.
  void set_compute_dtype(tensor::DType dtype);
  tensor::DType compute_dtype() const { return compute_dtype_; }

  /// Record activation statistics for the int8 path: after one or more calls
  /// the activation scale is the running max absmax / 127 instead of a
  /// per-forward dynamic absmax.
  void calibrate_int8(const Tensor& sample_input);

 private:
  Tensor run(const Tensor& input, bool train);
  /// Draw a fresh [n, out] inverted-dropout keep-mask into cached_mask_.
  const Tensor& draw_dropout_mask(std::int64_t n);

  Parameter weight_;
  Parameter bias_;
  bool has_bias_;
  Epilogue epilogue_ = Epilogue::kNone;
  float dropout_p_ = 0.0f;
  Rng dropout_rng_;
  tensor::DType compute_dtype_ = tensor::DType::kF32;
  Tensor cached_input_;
  Tensor cached_pre_;   // kGelu: post-bias pre-activation
  Tensor cached_mask_;  // kDropout: scaled keep-mask of the last forward
  tensor::Bf16Tensor cached_input_bf16_;  // kBf16: input of the last forward
  tensor::Bf16Tensor weight_bf16_;        // kBf16: weights of the last forward
  tensor::QuantizedTensor weight_i8_;     // kI8: cached per-channel weights
  bool weight_i8_valid_ = false;
  float calibrated_absmax_ = 0.0f;  // kI8: running activation absmax
};

class Embedding : public Module {
 public:
  Embedding(std::int64_t vocab, std::int64_t dim, Rng& rng,
            float init_std = 0.02f);

  /// input: token ids (floats) of any shape with N elements -> [N, dim].
  Tensor forward(const Tensor& input) override;
  /// Returns an empty tensor (ids carry no gradient).
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  Parameter& weight() { return weight_; }
  std::int64_t vocab() const { return weight_.value.dim(0); }
  std::int64_t dim() const { return weight_.value.dim(1); }

 private:
  Parameter weight_;  // [vocab, dim]
  std::vector<std::int64_t> cached_ids_;
};

class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t features, float eps = 1e-5f);

  Tensor forward(const Tensor& input) override;   // [N, C] -> [N, C]
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }

 private:
  Parameter gamma_;
  Parameter beta_;
  float eps_;
  Tensor cached_input_;
  Tensor cached_normalized_;
  std::vector<float> cached_inv_std_;
};

class Gelu : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
};

class Relu : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
};

}  // namespace caraml::nn
