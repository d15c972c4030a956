#include "nn/gpt.hpp"

#include <algorithm>

#include "telemetry/span.hpp"
#include "util/error.hpp"

namespace caraml::nn {

using tensor::Tensor;

TransformerBlock::TransformerBlock(std::int64_t embed_dim,
                                   std::int64_t num_heads, Rng& rng,
                                   float dropout, std::int64_t max_positions)
    : embed_dim_(embed_dim),
      ln1_(std::make_shared<LayerNorm>(embed_dim)),
      attn_(std::make_shared<CausalSelfAttention>(embed_dim, num_heads, rng,
                                                  max_positions)),
      ln2_(std::make_shared<LayerNorm>(embed_dim)),
      fc_in_(std::make_shared<Linear>(embed_dim, 4 * embed_dim, rng)),
      fc_out_(std::make_shared<Linear>(4 * embed_dim, embed_dim, rng)) {
  fc_in_->set_gelu();
  // Draw the mask seed only when dropout is on, so dropout-free models keep
  // the exact parameter-initialization stream they had before.
  if (dropout > 0.0f) fc_out_->set_dropout(dropout, rng.next_u64());
}

Tensor TransformerBlock::forward(const Tensor& input) {
  return run(input, std::nullopt);
}

Tensor TransformerBlock::forward_cached(const Tensor& input,
                                        std::int64_t pos) {
  return run(input, pos);
}

Tensor TransformerBlock::run(const Tensor& input,
                             std::optional<std::int64_t> pos) {
  CARAML_CHECK_MSG(input.rank() == 3 && input.dim(2) == embed_dim_,
                   "block expects [B, T, C]");
  batch_ = input.dim(0);
  time_ = input.dim(1);
  const std::int64_t n = batch_ * time_;
  const auto linear = [&pos](Linear& layer, const Tensor& x) {
    return pos ? layer.infer(x) : layer.forward(x);
  };

  // x = input + attn(ln1(input))
  Tensor ln1_out = ln1_->forward(input.reshape({n, embed_dim_}))
                       .reshape({batch_, time_, embed_dim_});
  Tensor attn_out = pos ? attn_->forward_cached(ln1_out, *pos)
                        : attn_->forward(ln1_out);
  Tensor x = tensor::add(input, attn_out);

  // x = x + mlp(ln2(x))
  Tensor ln2_out = ln2_->forward(x.reshape({n, embed_dim_}));
  Tensor mlp = linear(*fc_out_, linear(*fc_in_, ln2_out));
  Tensor out = tensor::add(x, mlp.reshape({batch_, time_, embed_dim_}));
  return out;
}

Tensor TransformerBlock::backward(const Tensor& grad_output) {
  const std::int64_t n = batch_ * time_;
  CARAML_CHECK_MSG(grad_output.rank() == 3, "block backward expects [B, T, C]");

  // out = x + mlp(ln2(x)): grad flows through both branches.
  Tensor g_flat = grad_output.reshape({n, embed_dim_});
  Tensor d_mlp = fc_in_->backward(fc_out_->backward(g_flat));  // d ln2_out
  Tensor d_x_from_ln2 = ln2_->backward(d_mlp);           // [n, C]
  Tensor d_x = tensor::add(g_flat, d_x_from_ln2);        // residual

  // x = input + attn(ln1(input)).
  Tensor d_attn_in = attn_->backward(d_x.reshape({batch_, time_, embed_dim_}));
  Tensor d_input_from_ln1 =
      ln1_->backward(d_attn_in.reshape({n, embed_dim_}));
  Tensor d_input = tensor::add(d_x, d_input_from_ln1);
  return d_input.reshape({batch_, time_, embed_dim_});
}

void TransformerBlock::set_compute_dtype(tensor::DType dtype) {
  if (dtype == tensor::DType::kI8) {
    // int8 is inference-only, so it covers exactly the GPT MLP linears; the
    // attention projections keep fp32 (they feed the fp32 attention core and
    // must stay trainable when the caller flips back to kF32).
    attn_->set_compute_dtype(tensor::DType::kF32);
  } else {
    attn_->set_compute_dtype(dtype);
  }
  fc_in_->set_compute_dtype(dtype);
  fc_out_->set_compute_dtype(dtype);
}

std::vector<Parameter*> TransformerBlock::parameters() {
  std::vector<Parameter*> out;
  for (auto* m : {static_cast<Module*>(ln1_.get()),
                  static_cast<Module*>(attn_.get()),
                  static_cast<Module*>(ln2_.get()),
                  static_cast<Module*>(fc_in_.get()),
                  static_cast<Module*>(fc_out_.get())}) {
    for (Parameter* p : m->parameters()) out.push_back(p);
  }
  return out;
}

GptModel::GptModel(GptModelConfig config, Rng& rng)
    : config_(config),
      tok_emb_(std::make_shared<Embedding>(config.vocab_size, config.embed_dim,
                                           rng)),
      pos_emb_("pos_emb", Tensor::randn({config.block_size, config.embed_dim},
                                        rng, 0.02f)),
      ln_f_(std::make_shared<LayerNorm>(config.embed_dim)),
      lm_head_(std::make_shared<Linear>(config.embed_dim, config.vocab_size,
                                        rng, /*bias=*/false)) {
  CARAML_CHECK_MSG(config.num_layers >= 1, "GPT needs at least one layer");
  blocks_.reserve(static_cast<std::size_t>(config.num_layers));
  for (std::int64_t i = 0; i < config.num_layers; ++i) {
    blocks_.push_back(std::make_shared<TransformerBlock>(
        config.embed_dim, config.num_heads, rng, config.dropout,
        config.block_size));
  }
}

Tensor GptModel::embed(const Tensor& tokens, std::int64_t pos) {
  const std::int64_t batch = tokens.dim(0), time = tokens.dim(1);
  const std::int64_t c = config_.embed_dim;
  Tensor x = tok_emb_->forward(tokens);  // [B*T, C]
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < time; ++t) {
      float* row = x.data() + (b * time + t) * c;
      const float* pos_row = pos_emb_.value.data() + (pos + t) * c;
      for (std::int64_t j = 0; j < c; ++j) row[j] += pos_row[j];
    }
  }
  return x.reshape({batch, time, c});
}

Tensor GptModel::forward(const Tensor& tokens) {
  CARAML_CHECK_MSG(tokens.rank() == 2, "GPT expects tokens [B, T]");
  batch_ = tokens.dim(0);
  time_ = tokens.dim(1);
  CARAML_CHECK_MSG(time_ <= config_.block_size,
                   "sequence longer than block size");
  const std::int64_t n = batch_ * time_;
  const std::int64_t c = config_.embed_dim;

  Tensor h = embed(tokens, 0);
  for (auto& block : blocks_) h = block->forward(h);

  Tensor hn = ln_f_->forward(h.reshape({n, c}));
  return lm_head_->forward(hn);  // [n, vocab]
}

Tensor GptModel::forward_cached(const std::vector<std::int64_t>& ids,
                                std::int64_t pos) {
  const auto time = static_cast<std::int64_t>(ids.size());
  CARAML_CHECK_MSG(time >= 1 && pos >= 0 && pos + time <= config_.block_size,
                   "cached positions must lie within the block size");
  const std::int64_t c = config_.embed_dim;
  Tensor tokens({1, time});
  for (std::int64_t t = 0; t < time; ++t) {
    tokens[t] = static_cast<float>(ids[static_cast<std::size_t>(t)]);
  }
  Tensor h = embed(tokens, pos);
  for (auto& block : blocks_) h = block->forward_cached(h, pos);

  const Tensor last({1, c}, std::vector<float>(h.data() + (time - 1) * c,
                                               h.data() + time * c));
  return lm_head_->infer(ln_f_->forward(last));  // [1, vocab]
}

Tensor GptModel::backward(const Tensor& grad_logits) {
  const std::int64_t n = batch_ * time_;
  const std::int64_t c = config_.embed_dim;
  CARAML_CHECK_MSG(grad_logits.rank() == 2 && grad_logits.dim(0) == n,
                   "GPT backward expects [B*T, vocab]");

  Tensor g = ln_f_->backward(lm_head_->backward(grad_logits));  // [n, C]
  Tensor h = g.reshape({batch_, time_, c});
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    h = (*it)->backward(h);
  }

  Tensor d_emb = h.reshape({n, c});
  // Positional-embedding gradient: sum over batch.
  for (std::int64_t b = 0; b < batch_; ++b) {
    for (std::int64_t t = 0; t < time_; ++t) {
      const float* row = d_emb.data() + (b * time_ + t) * c;
      float* pos = pos_emb_.grad.data() + t * c;
      for (std::int64_t j = 0; j < c; ++j) pos[j] += row[j];
    }
  }
  tok_emb_->backward(d_emb);
  return Tensor();  // token ids carry no gradient
}

std::vector<Parameter*> GptModel::parameters() {
  std::vector<Parameter*> out = tok_emb_->parameters();
  out.push_back(&pos_emb_);
  for (auto& block : blocks_) {
    for (Parameter* p : block->parameters()) out.push_back(p);
  }
  for (Parameter* p : ln_f_->parameters()) out.push_back(p);
  for (Parameter* p : lm_head_->parameters()) out.push_back(p);
  return out;
}

namespace {

// Greedy argmax of logits [1, vocab] when temperature == 0, else a draw from
// softmax(logits / temperature).
std::int64_t sample_next(const Tensor& logits, float temperature, Rng& rng) {
  const std::int64_t vocab = logits.dim(1);
  std::int64_t next = 0;
  if (temperature == 0.0f) {
    for (std::int64_t v = 1; v < vocab; ++v) {
      if (logits[v] > logits[next]) next = v;
    }
    return next;
  }
  Tensor scaled({1, vocab});
  for (std::int64_t v = 0; v < vocab; ++v) scaled[v] = logits[v] / temperature;
  const Tensor probs = tensor::softmax_rows(scaled);
  double r = rng.next_double();
  for (std::int64_t v = 0; v < vocab; ++v) {
    r -= probs[v];
    next = v;  // numeric tail: fall through to the last token
    if (r <= 0.0) break;
  }
  return next;
}

}  // namespace

std::vector<std::int64_t> GptModel::generate(
    const std::vector<std::int64_t>& prompt, std::int64_t new_tokens,
    float temperature, Rng& rng) {
  CARAML_CHECK_MSG(!prompt.empty(), "generation needs a non-empty prompt");
  CARAML_CHECK_MSG(temperature >= 0.0f, "temperature must be non-negative");
  std::vector<std::int64_t> sequence = prompt;
  if (new_tokens <= 0) return sequence;
  const auto block = static_cast<std::size_t>(config_.block_size);
  // The context forward() would see: the last block_size ids.
  const auto window = [&sequence, block] {
    return std::vector<std::int64_t>(
        sequence.end() -
            static_cast<std::ptrdiff_t>(std::min(sequence.size(), block)),
        sequence.end());
  };
  {
    TELEMETRY_SPAN("prefill");
    sequence.push_back(
        sample_next(forward_cached(window(), 0), temperature, rng));
  }
  TELEMETRY_SPAN("decode");
  const std::size_t total =
      prompt.size() + static_cast<std::size_t>(new_tokens);
  while (sequence.size() < total) {
    // The newest id goes to the next position while the window has room;
    // past block_size every position shifts and the caches are rebuilt.
    const std::size_t pos = sequence.size() - 1;
    const Tensor logits =
        pos < block ? forward_cached({sequence.back()},
                                     static_cast<std::int64_t>(pos))
                    : forward_cached(window(), 0);
    sequence.push_back(sample_next(logits, temperature, rng));
  }
  return sequence;
}

void GptModel::set_compute_dtype(tensor::DType dtype) {
  for (auto& block : blocks_) block->set_compute_dtype(dtype);
  // The LM head follows bf16 (it is the largest single GEMM in the model)
  // but stays fp32 under int8: its logits feed a softmax whose sampling
  // behavior is too sensitive to per-tensor activation scales.
  lm_head_->set_compute_dtype(dtype == tensor::DType::kBf16
                                  ? tensor::DType::kBf16
                                  : tensor::DType::kF32);
  compute_dtype_ = dtype;
}

float GptModel::train_step(const Tensor& tokens,
                           const std::vector<std::int64_t>& targets) {
  const Tensor logits = forward(tokens);
  const LossResult loss = softmax_cross_entropy(logits, targets);
  backward(loss.grad_logits);
  return loss.loss;
}

}  // namespace caraml::nn
