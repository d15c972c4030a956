#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/gpt.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/resnet.hpp"
#include "tensor/dtype.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caraml::nn {
namespace {

using tensor::Tensor;

// Check d(sum(module(x)))/dx and d/dparams against central finite differences.
// The module is re-run for each probe, so it must be deterministic.
void check_gradients(Module& module, const Tensor& input, float eps = 1e-2f,
                     float tol = 5e-2f, int param_stride = 7,
                     int input_stride = 5) {
  // Analytic gradients.
  module.zero_grad();
  const Tensor out = module.forward(input);
  const Tensor ones = Tensor::ones(out.shape());
  const Tensor dinput = module.backward(ones);

  auto loss_at = [&](const Tensor& x) {
    return tensor::sum(module.forward(x));
  };

  // Input gradient.
  if (dinput.numel() > 0) {
    for (std::int64_t i = 0; i < input.numel(); i += input_stride) {
      Tensor xp = input, xm = input;
      xp[i] += eps;
      xm[i] -= eps;
      const float fd = (loss_at(xp) - loss_at(xm)) / (2.0f * eps);
      ASSERT_NEAR(dinput[i], fd, tol) << "input grad, index " << i;
    }
  }

  // Parameter gradients (captured before the probe runs overwrite them...
  // probes do not call backward, so grads are intact).
  for (Parameter* p : module.parameters()) {
    for (std::int64_t i = 0; i < p->numel(); i += param_stride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float up = loss_at(input);
      p->value[i] = saved - eps;
      const float down = loss_at(input);
      p->value[i] = saved;
      const float fd = (up - down) / (2.0f * eps);
      ASSERT_NEAR(p->grad[i], fd, tol)
          << "param " << p->name << ", index " << i;
    }
  }
}

// --- Linear -----------------------------------------------------------------------

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().value = Tensor({3, 2}, {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  layer.bias()->value = Tensor({3}, {0.5f, -0.5f, 0.0f});
  const Tensor x({1, 2}, {2.0f, 3.0f});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 2.5f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
}

TEST(Linear, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Linear layer(4, 3, rng, true, 0.5f);
  const Tensor x = Tensor::randn({5, 4}, rng);
  check_gradients(layer, x, 1e-2f, 2e-2f, 3, 2);
}

TEST(Linear, NoBiasVariant) {
  Rng rng(3);
  Linear layer(4, 2, rng, /*bias=*/false);
  EXPECT_EQ(layer.parameters().size(), 1u);
  EXPECT_EQ(layer.bias(), nullptr);
}

TEST(Linear, ShapeMismatchThrows) {
  Rng rng(4);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({1, 3})), Error);
}

TEST(Linear, GeluEpilogueGradientsMatchFiniteDifference) {
  Rng rng(31);
  Linear layer(6, 5, rng, true, 0.5f);
  layer.set_gelu();
  const Tensor x = Tensor::randn({4, 6}, rng, 0.5f);
  check_gradients(layer, x, 1e-2f, 5e-2f, 3, 1);
}

TEST(Linear, DropoutEpilogueMasksScalesAndRoutesGradient) {
  // Two layers with identical weights; one applies a 0.5 inverted-dropout
  // epilogue. Kept outputs must equal exactly twice the plain output, and
  // backward must route gradient only through kept slots.
  Rng rng_a(32), rng_b(32), rng_x(33);
  Linear plain(6, 5, rng_a, true, 0.5f);
  Linear dropped(6, 5, rng_b, true, 0.5f);
  dropped.set_dropout(0.5f, 99);

  const Tensor x = Tensor::randn({40, 6}, rng_x, 0.5f);
  const Tensor base = plain.forward(x);
  const Tensor out = dropped.forward(x);
  std::int64_t kept = 0;
  Tensor mask({40, 5});
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f) {
      mask[i] = 0.0f;
    } else {
      ASSERT_EQ(out[i], base[i] * 2.0f) << "at flat index " << i;
      mask[i] = 2.0f;
      ++kept;
    }
  }
  // 200 Bernoulli(0.5) draws: the kept fraction concentrates around half.
  EXPECT_GT(kept, 60);
  EXPECT_LT(kept, 140);

  dropped.zero_grad();
  const Tensor ones = Tensor::ones(out.shape());
  const Tensor dx = dropped.backward(ones);
  const Tensor dx_want = tensor::matmul(mask, dropped.weight().value);
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    ASSERT_NEAR(dx[i], dx_want[i], 1e-5f) << "input grad at " << i;
  }
  // Bias gradient is the column sum of the masked incoming gradient.
  for (std::int64_t j = 0; j < 5; ++j) {
    float col = 0.0f;
    for (std::int64_t i = 0; i < 40; ++i) col += mask[i * 5 + j];
    EXPECT_NEAR(dropped.bias()->grad[j], col, 1e-4f) << "bias grad " << j;
  }
}

// --- Embedding --------------------------------------------------------------------

TEST(Embedding, LooksUpRows) {
  Rng rng(5);
  Embedding embed(10, 4, rng);
  const Tensor ids({2}, {3.0f, 7.0f});
  const Tensor out = embed.forward(ids);
  for (std::int64_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out[j], embed.weight().value[3 * 4 + j]);
    EXPECT_FLOAT_EQ(out[4 + j], embed.weight().value[7 * 4 + j]);
  }
}

TEST(Embedding, BackwardAccumulatesPerToken) {
  Rng rng(6);
  Embedding embed(10, 2, rng);
  const Tensor ids({3}, {1.0f, 1.0f, 2.0f});  // token 1 appears twice
  embed.forward(ids);
  const Tensor g({3, 2}, {1.0f, 1.0f, 1.0f, 1.0f, 5.0f, 5.0f});
  embed.backward(g);
  EXPECT_FLOAT_EQ(embed.weight().grad[1 * 2 + 0], 2.0f);
  EXPECT_FLOAT_EQ(embed.weight().grad[2 * 2 + 0], 5.0f);
  EXPECT_FLOAT_EQ(embed.weight().grad[0], 0.0f);
}

TEST(Embedding, OutOfRangeTokenThrows) {
  Rng rng(7);
  Embedding embed(10, 2, rng);
  EXPECT_THROW(embed.forward(Tensor({1}, {10.0f})), Error);
}

// --- LayerNorm --------------------------------------------------------------------

TEST(LayerNorm, NormalizesRows) {
  LayerNorm layer(4);
  const Tensor x({2, 4}, {1.0f, 2.0f, 3.0f, 4.0f, -2.0f, 0.0f, 2.0f, 4.0f});
  const Tensor y = layer.forward(x);
  for (std::int64_t r = 0; r < 2; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) mean += y[r * 4 + c];
    mean /= 4.0;
    for (std::int64_t c = 0; c < 4; ++c) {
      var += (y[r * 4 + c] - mean) * (y[r * 4 + c] - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var / 4.0, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradientsMatchFiniteDifference) {
  Rng rng(8);
  LayerNorm layer(6);
  layer.gamma().value = Tensor::randn({6}, rng, 0.3f);
  for (std::int64_t i = 0; i < 6; ++i) layer.gamma().value[i] += 1.0f;
  const Tensor x = Tensor::randn({4, 6}, rng);
  check_gradients(layer, x, 1e-2f, 3e-2f, 2, 1);
}

// --- parameter-gradient reductions ------------------------------------------

// Linear's bias grad and LayerNorm's gamma/beta grads sum per-chunk partials
// across pool workers. They must not depend on which chunk finishes first:
// two callers share one 2-worker pool (the data-parallel set-up) and run 200
// backward calls each on fixed inputs at the gpt_train shape [512, 128], and
// every call must produce one bit pattern. The pool reads CARAML_NUM_THREADS
// once at start-up, so the test re-runs itself in a child with 2 workers.
TEST(Reductions, ParameterGradientsDoNotDependOnScheduling) {
  if (std::getenv("CARAML_REDUCTION_CHILD") != nullptr) {
    Rng rng(31);
    const Tensor x = Tensor::randn({512, 128}, rng);
    const Tensor g = Tensor::randn({512, 128}, rng);
    const auto bits = [](const Tensor& t) {
      return std::string(reinterpret_cast<const char*>(t.data()),
                         static_cast<std::size_t>(t.numel()) * sizeof(float));
    };
    std::vector<std::string> patterns[2];
    const auto caller = [&](std::vector<std::string>& out) {
      Rng init(32);
      Linear linear(128, 128, init);
      LayerNorm norm(128);
      linear.forward(x);
      norm.forward(x);
      for (int call = 0; call < 200; ++call) {
        linear.zero_grad();
        norm.zero_grad();
        linear.backward(g);
        norm.backward(g);
        out.push_back(bits(linear.bias()->grad) + bits(norm.gamma().grad) +
                      bits(norm.beta().grad));
      }
    };
    std::thread other(caller, std::ref(patterns[1]));
    caller(patterns[0]);
    other.join();
    for (const auto& per_caller : patterns) {
      for (const std::string& p : per_caller) {
        ASSERT_EQ(p, patterns[0][0]) << "a second bit pattern appeared";
      }
    }
    return;
  }
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(exe_len, 0);
  exe[exe_len] = '\0';
  const std::string cmd =
      std::string("CARAML_NUM_THREADS=2 CARAML_REDUCTION_CHILD=1 '") + exe +
      "' --gtest_filter=Reductions.ParameterGradientsDoNotDependOnScheduling"
      " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "child failed: " << cmd;
}

// --- activations as modules ---------------------------------------------------------

TEST(GeluModule, GradientsMatchFiniteDifference) {
  Rng rng(9);
  Gelu layer;
  const Tensor x = Tensor::randn({3, 5}, rng);
  check_gradients(layer, x, 1e-2f, 2e-2f, 1, 1);
}

TEST(ReluModule, GradientsAwayFromKink) {
  Relu layer;
  const Tensor x({4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  check_gradients(layer, x, 1e-3f, 1e-2f, 1, 1);
}

// --- attention ----------------------------------------------------------------------

TEST(Attention, OutputShapeMatchesInput) {
  Rng rng(10);
  CausalSelfAttention attn(8, 2, rng);
  const Tensor x = Tensor::randn({2, 5, 8}, rng, 0.5f);
  const Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Attention, CausalMaskBlocksFuture) {
  // Changing a future token must not change earlier outputs.
  Rng rng(11);
  CausalSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::randn({1, 4, 8}, rng, 0.5f);
  const Tensor y1 = attn.forward(x);
  // Perturb the last time step.
  for (std::int64_t j = 0; j < 8; ++j) x[3 * 8 + j] += 10.0f;
  const Tensor y2 = attn.forward(x);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(y1[t * 8 + j], y2[t * 8 + j], 1e-5)
          << "t=" << t << " j=" << j;
    }
  }
}

TEST(Attention, GradientsMatchFiniteDifference) {
  Rng rng(12);
  CausalSelfAttention attn(4, 2, rng);
  const Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f);
  check_gradients(attn, x, 1e-2f, 5e-2f, 11, 1);
}

TEST(Attention, HeadDivisibilityEnforced) {
  Rng rng(13);
  EXPECT_THROW(CausalSelfAttention(10, 3, rng), Error);
}

// --- transformer block / GPT ----------------------------------------------------------

TEST(TransformerBlock, GradientsMatchFiniteDifference) {
  Rng rng(14);
  TransformerBlock block(4, 2, rng);
  const Tensor x = Tensor::randn({1, 3, 4}, rng, 0.5f);
  check_gradients(block, x, 1e-2f, 6e-2f, 13, 1);
}

TEST(Gpt, ForwardShape) {
  Rng rng(15);
  GptModelConfig config;
  config.vocab_size = 50;
  config.block_size = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.embed_dim = 16;
  GptModel model(config, rng);
  const Tensor tokens({2, 6}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  const Tensor logits = model.forward(tokens);
  EXPECT_EQ(logits.dim(0), 12);
  EXPECT_EQ(logits.dim(1), 50);
}

TEST(Gpt, SequenceLongerThanBlockThrows) {
  Rng rng(16);
  GptModelConfig config;
  config.block_size = 4;
  GptModel model(config, rng);
  EXPECT_THROW(model.forward(Tensor({1, 5})), Error);
}

TEST(Gpt, ParameterCountIsPlausible) {
  Rng rng(17);
  GptModelConfig config;
  config.vocab_size = 100;
  config.block_size = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.embed_dim = 32;
  GptModel model(config, rng);
  // embeddings 100*32 + pos 16*32 + head 100*32 + 2 blocks of ~12*32^2.
  const std::int64_t params = model.num_parameters();
  EXPECT_GT(params, 30000);
  EXPECT_LT(params, 50000);
}

TEST(Gpt, TrainingReducesLoss) {
  Rng rng(18);
  GptModelConfig config;
  config.vocab_size = 16;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  GptModel model(config, rng);
  Adam optimizer(model.parameters(), 1e-2f);

  // A fixed periodic sequence the model can memorize.
  Tensor tokens({2, 8});
  std::vector<std::int64_t> targets(16);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t t = 0; t < 8; ++t) {
      tokens[b * 8 + t] = static_cast<float>((b + t) % 4);
      targets[static_cast<std::size_t>(b * 8 + t)] = (b + t + 1) % 4;
    }
  }
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 40; ++step) {
    optimizer.zero_grad();
    const float loss = model.train_step(tokens, targets);
    optimizer.step();
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.5f);
}

// --- loss ----------------------------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  const Tensor logits = Tensor::zeros({3, 8});
  const LossResult result = softmax_cross_entropy(logits, {0, 3, 7});
  EXPECT_NEAR(result.loss, std::log(8.0f), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(19);
  const Tensor logits = Tensor::randn({4, 6}, rng);
  const LossResult result = softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (std::int64_t r = 0; r < 4; ++r) {
    double total = 0.0;
    for (std::int64_t c = 0; c < 6; ++c) {
      total += result.grad_logits[r * 6 + c];
    }
    EXPECT_NEAR(total, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(20);
  const Tensor logits = Tensor::randn({2, 4}, rng);
  const std::vector<std::int64_t> targets = {1, 3};
  const LossResult result = softmax_cross_entropy(logits, targets);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float fd = (softmax_cross_entropy(lp, targets).loss -
                      softmax_cross_entropy(lm, targets).loss) /
                     (2.0f * eps);
    EXPECT_NEAR(result.grad_logits[i], fd, 1e-3);
  }
}

TEST(Loss, TargetOutOfRangeThrows) {
  const Tensor logits = Tensor::zeros({1, 4});
  EXPECT_THROW(softmax_cross_entropy(logits, {4}), Error);
}

TEST(Loss, AccuracyComputation) {
  const Tensor logits({2, 3}, {0.0f, 5.0f, 0.0f, 9.0f, 0.0f, 0.0f});
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 2}), 0.5);
}

// --- conv modules -----------------------------------------------------------------------

TEST(Conv2dModule, GradientsMatchFiniteDifference) {
  Rng rng(21);
  Conv2d layer(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  check_gradients(layer, x, 1e-2f, 6e-2f, 5, 3);
}

TEST(BatchNorm, NormalizesPerChannel) {
  BatchNorm2d layer(2);
  Rng rng(22);
  const Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 2.0f);
  const Tensor y = layer.forward(x);
  for (std::int64_t ch = 0; ch < 2; ++ch) {
    double mean = 0.0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 9; ++i) mean += y[(n * 2 + ch) * 9 + i];
    }
    EXPECT_NEAR(mean / 36.0, 0.0, 1e-4);
  }
}

TEST(BatchNorm, RunningStatsUpdated) {
  BatchNorm2d layer(1, 1e-5f, 0.5f);
  const Tensor x = Tensor::full({2, 1, 2, 2}, 4.0f);
  layer.forward(x);
  // Running mean moves halfway from 0 toward 4.
  EXPECT_NEAR(layer.running_mean()[0], 2.0f, 1e-5);
}

TEST(BatchNorm, GradientsMatchFiniteDifference) {
  Rng rng(23);
  BatchNorm2d layer(2);
  const Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  check_gradients(layer, x, 1e-2f, 6e-2f, 1, 1);
}

TEST(MaxPoolModule, RoundTrip) {
  Rng rng(24);
  MaxPool2d layer(2);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  const Tensor y = layer.forward(x);
  const Tensor g = Tensor::ones(y.shape());
  const Tensor dx = layer.backward(g);
  EXPECT_NEAR(tensor::sum(dx), 4.0f, 1e-5);
}

// --- residual blocks / ResNet -------------------------------------------------------------

TEST(ResidualBlock, BasicBlockGradients) {
  Rng rng(25);
  ResidualBlock block(2, 2, 1, /*bottleneck=*/false, rng);
  const Tensor x = Tensor::randn({1, 2, 4, 4}, rng, 0.7f);
  check_gradients(block, x, 1e-2f, 8e-2f, 9, 5);
}

TEST(ResidualBlock, BottleneckWithProjection) {
  Rng rng(26);
  ResidualBlock block(4, 2, 2, /*bottleneck=*/true, rng);
  EXPECT_EQ(block.out_channels(), 8);
  const Tensor x = Tensor::randn({1, 4, 6, 6}, rng);
  const Tensor y = block.forward(x);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 3);  // stride 2
  const Tensor dx = block.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(ResNet, ForwardShapeAndParams) {
  Rng rng(27);
  ResNet model(nn::ResNetConfig::tiny(10), rng);
  const Tensor images = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor logits = model.forward(images);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
  EXPECT_GT(model.num_parameters(), 1000);
}

TEST(ResNet, TrainingReducesLossOnSeparableData) {
  Rng rng(28);
  ResNet model(nn::ResNetConfig::tiny(2), rng);
  Sgd optimizer(model.parameters(), 0.05f, 0.9f);
  // Class 0: all -1 images, class 1: all +1.
  Tensor images({8, 3, 8, 8});
  std::vector<std::int64_t> labels(8);
  for (std::int64_t i = 0; i < 8; ++i) {
    const float v = i % 2 == 0 ? -1.0f : 1.0f;
    labels[static_cast<std::size_t>(i)] = i % 2;
    for (std::int64_t j = 0; j < 3 * 64; ++j) images[i * 3 * 64 + j] = v;
  }
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 20; ++step) {
    optimizer.zero_grad();
    const float loss = model.train_step(images, labels);
    optimizer.step();
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(ResNet, BottleneckVariantRuns) {
  Rng rng(29);
  ResNet model(nn::ResNetConfig::small_bottleneck(4), rng);
  const Tensor images = Tensor::randn({1, 3, 16, 16}, rng);
  EXPECT_EQ(model.forward(images).dim(1), 4);
}

// --- optimizers -----------------------------------------------------------------------------

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2 by hand-feeding gradients.
  Parameter w("w", Tensor({3}, {5.0f, -4.0f, 2.0f}));
  const Tensor target({3}, {1.0f, 1.0f, 1.0f});
  Sgd optimizer({&w}, 0.1f, 0.0f);
  for (int step = 0; step < 200; ++step) {
    optimizer.zero_grad();
    for (std::int64_t i = 0; i < 3; ++i) w.grad[i] = w.value[i] - target[i];
    optimizer.step();
  }
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(w.value[i], 1.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Parameter slow("s", Tensor({1}, {10.0f}));
  Parameter fast("f", Tensor({1}, {10.0f}));
  Sgd plain({&slow}, 0.01f, 0.0f);
  Sgd momentum({&fast}, 0.01f, 0.9f);
  for (int step = 0; step < 50; ++step) {
    plain.zero_grad();
    momentum.zero_grad();
    slow.grad[0] = slow.value[0];
    fast.grad[0] = fast.value[0];
    plain.step();
    momentum.step();
  }
  EXPECT_LT(std::fabs(fast.value[0]), std::fabs(slow.value[0]));
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Parameter w("w", Tensor({1}, {1.0f}));
  Sgd optimizer({&w}, 0.1f, 0.0f, 0.5f);
  optimizer.zero_grad();  // gradient zero, decay only
  optimizer.step();
  EXPECT_NEAR(w.value[0], 1.0f - 0.1f * 0.5f, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter w("w", Tensor({2}, {8.0f, -8.0f}));
  Adam optimizer({&w}, 0.3f);
  for (int step = 0; step < 300; ++step) {
    optimizer.zero_grad();
    for (std::int64_t i = 0; i < 2; ++i) w.grad[i] = w.value[i];
    optimizer.step();
  }
  EXPECT_NEAR(w.value[0], 0.0f, 1e-2);
  EXPECT_NEAR(w.value[1], 0.0f, 1e-2);
  EXPECT_EQ(optimizer.step_count(), 300);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Parameter w("w", Tensor({2}, {0.0f, 0.0f}));
  w.grad = Tensor({2}, {3.0f, 4.0f});  // norm 5
  const double norm = clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(w.grad[0], 0.6f, 1e-5);
  EXPECT_NEAR(w.grad[1], 0.8f, 1e-5);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter w("w", Tensor({2}, {0.0f, 0.0f}));
  w.grad = Tensor({2}, {0.3f, 0.4f});
  clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(w.grad[0], 0.3f, 1e-6);
}

// --- Sequential ---------------------------------------------------------------------------

TEST(Sequential, ChainsModules) {
  Rng rng(30);
  auto sequential = std::make_shared<Sequential>();
  sequential->add(std::make_shared<Linear>(4, 8, rng));
  sequential->add(std::make_shared<Gelu>());
  sequential->add(std::make_shared<Linear>(8, 2, rng));
  EXPECT_EQ(sequential->size(), 3u);
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor y = sequential->forward(x);
  EXPECT_EQ(y.dim(1), 2);
  const Tensor dx = sequential->backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_EQ(sequential->parameters().size(), 4u);
}

TEST(Sequential, GradientsMatchFiniteDifference) {
  Rng rng(31);
  Sequential sequential;
  sequential.add(std::make_shared<Linear>(3, 5, rng, true, 0.5f));
  sequential.add(std::make_shared<Gelu>());
  sequential.add(std::make_shared<Linear>(5, 2, rng, true, 0.5f));
  const Tensor x = Tensor::randn({2, 3}, rng);
  check_gradients(sequential, x, 1e-2f, 4e-2f, 3, 1);
}

// --- compute dtypes -----------------------------------------------------------------------

TEST(LinearDtype, Bf16ForwardTracksFp32) {
  Rng rng(40);
  Linear layer(24, 16, rng, true, 0.5f);
  const Tensor x = Tensor::randn({9, 24}, rng);
  const Tensor y32 = layer.forward(x);
  layer.set_compute_dtype(tensor::DType::kBf16);
  EXPECT_EQ(layer.compute_dtype(), tensor::DType::kBf16);
  const Tensor y16 = layer.forward(x);
  ASSERT_EQ(y16.shape(), y32.shape());
  // bf16 carries ~3 decimal digits; with k = 24 the relative drift of each
  // dot product stays well under 2^-7.
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    absmax = std::max(absmax, std::fabs(y32[i]));
  }
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    ASSERT_NEAR(y16[i], y32[i], 0x1p-7f * absmax) << "flat index " << i;
  }
}

TEST(LinearDtype, Bf16GradientsTrackFp32) {
  Rng rng(41);
  Linear layer(12, 10, rng, true, 0.5f);
  layer.set_gelu();
  const Tensor x = Tensor::randn({7, 12}, rng);
  const Tensor g = Tensor::randn({7, 10}, rng);
  layer.forward(x);
  const Tensor dx32 = layer.backward(g);
  Tensor dw32 = layer.weight().grad;  // copy before the bf16 pass accumulates
  layer.zero_grad();
  layer.set_compute_dtype(tensor::DType::kBf16);
  layer.forward(x);
  const Tensor dx16 = layer.backward(g);
  const Tensor& dw16 = layer.weight().grad;
  float dw_absmax = 0.0f, dx_absmax = 0.0f;
  for (std::int64_t i = 0; i < dw32.numel(); ++i) {
    dw_absmax = std::max(dw_absmax, std::fabs(dw32[i]));
  }
  for (std::int64_t i = 0; i < dx32.numel(); ++i) {
    dx_absmax = std::max(dx_absmax, std::fabs(dx32[i]));
  }
  for (std::int64_t i = 0; i < dw32.numel(); ++i) {
    ASSERT_NEAR(dw16[i], dw32[i], 0x1p-6f * dw_absmax) << "dW index " << i;
  }
  for (std::int64_t i = 0; i < dx32.numel(); ++i) {
    ASSERT_NEAR(dx16[i], dx32[i], 0x1p-6f * dx_absmax) << "dX index " << i;
  }
}

TEST(LinearDtype, Int8ForwardTracksFp32AndBackwardRefuses) {
  Rng rng(42);
  Linear layer(32, 12, rng, true, 0.5f);
  const Tensor x = Tensor::randn({6, 32}, rng);
  const Tensor y32 = layer.forward(x);
  layer.set_compute_dtype(tensor::DType::kI8);
  const Tensor y8 = layer.forward(x);
  float absmax = 0.0f;
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    absmax = std::max(absmax, std::fabs(y32[i]));
  }
  for (std::int64_t i = 0; i < y32.numel(); ++i) {
    // int8 quantization noise: ~k * step_a * step_b accumulated, a few
    // percent of the output scale on random activations.
    ASSERT_NEAR(y8[i], y32[i], 0.05f * absmax + 1e-4f) << "flat index " << i;
  }
  EXPECT_THROW(layer.backward(Tensor::ones(y8.shape())), Error);
}

TEST(LinearDtype, Int8CalibrationPinsActivationScale) {
  Rng rng(43);
  Linear layer(16, 8, rng, true, 0.5f);
  layer.set_compute_dtype(tensor::DType::kI8);
  const Tensor sample = Tensor::randn({32, 16}, rng);
  layer.calibrate_int8(sample);
  // A calibrated layer must produce identical outputs for an input subrange
  // regardless of what else sits in the batch (per-forward dynamic scales
  // would differ between the two batches).
  Tensor small({1, 16});
  for (std::int64_t j = 0; j < 16; ++j) small[j] = sample[j];
  const Tensor y_alone = layer.forward(small);
  const Tensor y_batch = layer.forward(sample);
  for (std::int64_t j = 0; j < 8; ++j) {
    ASSERT_EQ(y_alone[j], y_batch[j]) << "col " << j;
  }
}

TEST(LinearDtype, Int8RejectsDropoutEpilogue) {
  Rng rng(44);
  Linear layer(8, 8, rng);
  layer.set_dropout(0.5f, 123);
  EXPECT_THROW(layer.set_compute_dtype(tensor::DType::kI8), Error);
  layer.set_dropout(0.0f, 123);  // clears the epilogue
  layer.set_compute_dtype(tensor::DType::kI8);
  EXPECT_EQ(layer.compute_dtype(), tensor::DType::kI8);
}

TEST(AttentionDtype, RejectsInt8AndAcceptsBf16) {
  Rng rng(45);
  CausalSelfAttention attn(16, 2, rng);
  EXPECT_THROW(attn.set_compute_dtype(tensor::DType::kI8), Error);
  attn.set_compute_dtype(tensor::DType::kBf16);
  const Tensor x = Tensor::randn({2, 8, 16}, rng);
  const Tensor y = attn.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  const Tensor dx = attn.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(GptDtype, Bf16TrainStepReducesLossAndInt8RefusesTraining) {
  GptModelConfig config;
  config.vocab_size = 48;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  Rng rng(46);
  GptModel model(config, rng);
  model.set_compute_dtype(tensor::DType::kBf16);
  EXPECT_EQ(model.compute_dtype(), tensor::DType::kBf16);
  Tensor tokens({2, 8});
  std::vector<std::int64_t> targets(16);
  for (std::int64_t i = 0; i < 16; ++i) {
    tokens[i] = static_cast<float>(i % 7);
    targets[static_cast<std::size_t>(i)] = (i + 1) % 7;
  }
  Sgd sgd(model.parameters(), 0.05f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 12; ++step) {
    sgd.zero_grad();
    const float loss = model.train_step(tokens, targets);
    ASSERT_TRUE(std::isfinite(loss)) << "step " << step;
    if (step == 0) first = loss;
    last = loss;
    sgd.step();
  }
  EXPECT_LT(last, first);

  model.set_compute_dtype(tensor::DType::kI8);
  EXPECT_THROW(model.train_step(tokens, targets), Error);
}

TEST(GptDtype, Int8GenerationMatchesFp32Greedy) {
  GptModelConfig config;
  config.vocab_size = 32;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  Rng rng(47);
  GptModel model(config, rng);
  Rng gen_rng(1);
  const auto ids32 = model.generate({3, 1, 4}, 8, 0.0f, gen_rng);
  model.set_compute_dtype(tensor::DType::kI8);
  Rng gen_rng2(1);
  const auto ids8 = model.generate({3, 1, 4}, 8, 0.0f, gen_rng2);
  // Greedy decoding of an untrained-but-deterministic model: the int8 logit
  // noise is far below typical logit gaps, so the argmax sequence matches.
  EXPECT_EQ(ids32, ids8);
  // And flipping back restores the fp32 path exactly.
  model.set_compute_dtype(tensor::DType::kF32);
  Rng gen_rng3(1);
  EXPECT_EQ(model.generate({3, 1, 4}, 8, 0.0f, gen_rng3), ids32);
}

// --- KV-cached decode vs the forward() oracle ---------------------------------
//
// generate() prefills once and then runs one row per token against per-layer
// K/V caches (GptModel::forward_cached); forward() recomputes the whole
// context. Both compute the same function and differ only in how rounding
// falls: a one-row product sums in another order than the blocked GEMM, and
// the bf16/int8 paths round operands whose last fp32 bits may differ. So the
// check is an analytic forward-error bound in the style of
// tests/dtype_test.cpp, not bit-equality:
//
//   |cached_j - oracle_j| <= gamma * sum_p |hn_p| |W_jp|
//                         <= gamma * (max|g| sqrt(C) + ||b||) * ||W_j||
//
// where hn is the final LayerNorm's output for the last row (gain g, bias b;
// its normalized part has unit rms, hence the Cauchy-Schwarz form) and W the
// LM head. gamma adds up the relative error every step on the path may
// introduce, to first order (each step's condition number taken as 1):
//   * eps32 per accumulated term of each dot product: per block the QKV
//     projection (C), QK^T (head_dim), P·V (up to block_size keys), the output
//     projection (C) and the MLP (C + 4C), then the LM head (C);
//   * bf16: one bf16 ulp (2^-8) for each operand the bf16 path rounds
//     (4 per block, plus the LM head): the two paths may round the same value
//     to neighbouring bf16 numbers;
//   * int8: two steps of a 127-level grid (relative to the operand's absmax)
//     for each MLP product. forward() sets the per-tensor activation grid from
//     every row of the context, a decode step from its one row, so the two
//     quantize the same value differently.
// The fp32 bound is tight enough that most steps compare greedy ids; the
// bf16 and int8 terms dominate theirs, so there the id check runs only where
// the oracle's top two are far apart.

struct DecodeShape {
  std::int64_t vocab, block, layers, heads, embed, prompt, fresh;
};

// The gpt_decode benchmark shape, and a tiny one whose 3 + 12 tokens slide
// past its block of 8 (every step after the window fills is a rebuild).
const DecodeShape kDecodeShapes[] = {{512, 128, 4, 4, 128, 16, 24},
                                     {32, 8, 2, 2, 16, 3, 12}};

double decode_gamma(const DecodeShape& s, tensor::DType dtype) {
  constexpr double kEps32 = 1.1920928955078125e-07;  // 2^-23
  const double depth =
      static_cast<double>(s.layers) *
          (7.0 * s.embed + s.embed / s.heads + s.block) +
      static_cast<double>(s.embed);
  double gamma = depth * kEps32;
  if (dtype == tensor::DType::kBf16) gamma += (4.0 * s.layers + 1.0) / 256.0;
  if (dtype == tensor::DType::kI8) gamma += 2.0 * s.layers * 2.0 / 127.0;
  return gamma;
}

// Per-logit bound gamma * (max|g| sqrt(C) + ||b||) * ||W_j|| from the final
// LayerNorm and LM head parameters (the last three of parameters()).
std::vector<double> logit_bounds(GptModel& model, const DecodeShape& s,
                                 double gamma) {
  const std::vector<Parameter*> params = model.parameters();
  const Tensor& gain = params[params.size() - 3]->value;
  const Tensor& shift = params[params.size() - 2]->value;
  const Tensor& head = params[params.size() - 1]->value;  // [vocab, C]
  double max_gain = 0.0, shift_sq = 0.0;
  for (std::int64_t p = 0; p < s.embed; ++p) {
    max_gain = std::max(max_gain, std::fabs(static_cast<double>(gain[p])));
    shift_sq += static_cast<double>(shift[p]) * shift[p];
  }
  const double hn_norm =
      max_gain * std::sqrt(static_cast<double>(s.embed)) + std::sqrt(shift_sq);
  std::vector<double> bounds(static_cast<std::size_t>(s.vocab));
  for (std::int64_t j = 0; j < s.vocab; ++j) {
    double w_sq = 0.0;
    for (std::int64_t p = 0; p < s.embed; ++p) {
      const double w = head[j * s.embed + p];
      w_sq += w * w;
    }
    bounds[static_cast<std::size_t>(j)] = gamma * hn_norm * std::sqrt(w_sq);
  }
  return bounds;
}

std::int64_t argmax(const float* logits, std::int64_t vocab) {
  return std::max_element(logits, logits + vocab) - logits;
}

GptModel decode_model(const DecodeShape& s, tensor::DType dtype, Rng& rng) {
  GptModelConfig config;
  config.vocab_size = s.vocab;
  config.block_size = s.block;
  config.num_layers = s.layers;
  config.num_heads = s.heads;
  config.embed_dim = s.embed;
  GptModel model(config, rng);
  model.set_compute_dtype(dtype);
  return model;
}

// Greedy generate, then replay its ids through forward_cached exactly as
// generate steps (prefill, one row per token, rebuild once the window
// slides) and compare every step's logits with forward() over the same
// context. Returns how many steps the top-two gap let the greedy check run.
int check_cached_decode(GptModel& model, const DecodeShape& s,
                        tensor::DType dtype,
                        const std::vector<std::int64_t>& prompt,
                        std::int64_t fresh) {
  Rng unused(0);
  const std::vector<std::int64_t> ids =
      model.generate(prompt, fresh, 0.0f, unused);
  EXPECT_EQ(ids.size(), prompt.size() + static_cast<std::size_t>(fresh));

  const std::vector<double> bounds =
      logit_bounds(model, s, decode_gamma(s, dtype));
  const double max_bound = *std::max_element(bounds.begin(), bounds.end());
  const auto block = static_cast<std::size_t>(s.block);
  int gap_checked = 0;
  for (std::size_t len = prompt.size(); len < ids.size(); ++len) {
    const std::size_t n = std::min(len, block);
    const std::vector<std::int64_t> window(ids.begin() + (len - n),
                                           ids.begin() + len);
    const std::size_t pos = len - 1;
    const Tensor cached =
        len == prompt.size() || pos >= block
            ? model.forward_cached(window, 0)
            : model.forward_cached({ids[pos]}, static_cast<std::int64_t>(pos));
    Tensor tokens({1, static_cast<std::int64_t>(n)});
    for (std::size_t t = 0; t < n; ++t) {
      tokens[static_cast<std::int64_t>(t)] = static_cast<float>(window[t]);
    }
    const Tensor logits = model.forward(tokens);
    const float* oracle =
        logits.data() + static_cast<std::int64_t>(n - 1) * s.vocab;
    for (std::int64_t j = 0; j < s.vocab; ++j) {
      EXPECT_LE(std::fabs(static_cast<double>(cached[j]) - oracle[j]),
                bounds[static_cast<std::size_t>(j)])
          << "len " << len << " logit " << j;
    }
    // The replay runs generate's calls, so its argmax is generate's id.
    EXPECT_EQ(argmax(cached.data(), s.vocab), ids[len]) << "len " << len;
    // Where the oracle's top two are further apart than the bounds of both,
    // no admissible rounding can swap them.
    const std::int64_t top = argmax(oracle, s.vocab);
    float second = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < s.vocab; ++j) {
      if (j != top) second = std::max(second, oracle[j]);
    }
    if (oracle[top] - second > 2.0 * max_bound) {
      ++gap_checked;
      EXPECT_EQ(ids[len], top) << "len " << len;
    }
  }
  return gap_checked;
}

class CachedDecode : public ::testing::TestWithParam<tensor::DType> {};

TEST_P(CachedDecode, MatchesForwardOracleWithinAnalyticBound) {
  const tensor::DType dtype = GetParam();
  for (const DecodeShape& s : kDecodeShapes) {
    int gap_checked = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE("embed " + std::to_string(s.embed) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      GptModel model = decode_model(s, dtype, rng);
      std::vector<std::int64_t> prompt(static_cast<std::size_t>(s.prompt));
      for (auto& id : prompt) {
        id = static_cast<std::int64_t>(rng.next_u64() %
                                       static_cast<std::uint64_t>(s.vocab));
      }
      gap_checked += check_cached_decode(model, s, dtype, prompt, s.fresh);
    }
    // Under fp32 the bound is tight enough that most steps compare ids.
    if (dtype == tensor::DType::kF32) {
      EXPECT_GT(gap_checked, 10 * s.fresh / 2) << "embed " << s.embed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dtypes, CachedDecode,
    ::testing::Values(tensor::DType::kF32, tensor::DType::kBf16,
                      tensor::DType::kI8),
    [](const auto& info) {
      return std::string(tensor::dtype_name(info.param));
    });

TEST(Generate, SlidesPastBlockSize) {
  // More tokens than the block holds, from a one-id prompt and from a prompt
  // longer than the block: once the window slides every step rebuilds the
  // caches, and each id still follows forward() over the last block_size ids.
  const DecodeShape s{8, 8, 1, 2, 16, 0, 0};
  Rng rng(33);
  GptModel model = decode_model(s, tensor::DType::kF32, rng);
  EXPECT_GT(check_cached_decode(model, s, tensor::DType::kF32, {1}, 20), 0);
  const std::vector<std::int64_t> long_prompt = {1, 2, 3, 4, 5, 6,
                                                 7, 0, 1, 2, 3};
  EXPECT_GT(check_cached_decode(model, s, tensor::DType::kF32, long_prompt, 6),
            0);
}

TEST(Gpt, ForwardCachedRejectsPositionsBeyondTheCache) {
  GptModelConfig config;
  config.block_size = 4;
  Rng rng(50);
  GptModel model(config, rng);
  EXPECT_THROW(model.forward_cached({1, 2, 3, 4, 5}, 0), Error);
  EXPECT_THROW(model.forward_cached({1}, 4), Error);
  // Positions [0, pos) must have been cached first.
  EXPECT_THROW(model.forward_cached({1}, 3), Error);
  model.forward_cached({1, 2}, 0);
  EXPECT_THROW(model.forward_cached({3}, 3), Error);
  model.forward_cached({3}, 2);
  // Weights may change after backward, and set_compute_dtype changes how
  // K and V are computed: either empties the cache.
  model.set_compute_dtype(tensor::DType::kBf16);
  EXPECT_THROW(model.forward_cached({4}, 3), Error);
  model.forward_cached({1, 2, 3}, 0);
  const Tensor tokens({1, 3}, {1.0f, 2.0f, 3.0f});
  model.train_step(tokens, {2, 3, 0});
  EXPECT_THROW(model.forward_cached({4}, 3), Error);
  model.forward_cached({1, 2, 3}, 0);
  model.forward_cached({4}, 3);
  CausalSelfAttention uncached(8, 2, rng);
  EXPECT_THROW(uncached.forward_cached(Tensor({1, 1, 8}), 0), Error);
}

// --- generation runs without dropout -----------------------------------------

GptModel dropout_model(std::uint64_t seed) {
  GptModelConfig config;
  config.vocab_size = 32;
  config.block_size = 16;
  config.num_layers = 2;
  config.num_heads = 2;
  config.embed_dim = 16;
  config.dropout = 0.5f;
  Rng rng(seed);
  return GptModel(config, rng);
}

TEST(GenerateDropout, GreedyDecodingRepeats) {
  GptModel model = dropout_model(51);
  Rng rng(1);
  const auto first = model.generate({3, 1, 4, 1}, 10, 0.0f, rng);
  for (int call = 0; call < 10; ++call) {
    EXPECT_EQ(model.generate({3, 1, 4, 1}, 10, 0.0f, rng), first)
        << "call " << call;
  }
}

TEST(GenerateDropout, LeavesTheTrainingMaskStreamAlone) {
  // Two identically built models; one generates first. The next train step
  // draws the same dropout masks on both, so the losses agree bit for bit.
  GptModel generated = dropout_model(52);
  GptModel fresh = dropout_model(52);
  Rng rng(2);
  generated.generate({5, 9, 2}, 6, 0.0f, rng);
  Tensor tokens({2, 8});
  std::vector<std::int64_t> targets(16);
  for (std::int64_t i = 0; i < 16; ++i) {
    tokens[i] = static_cast<float>((3 * i) % 32);
    targets[static_cast<std::size_t>(i)] = (3 * i + 3) % 32;
  }
  EXPECT_EQ(generated.train_step(tokens, targets),
            fresh.train_step(tokens, targets));
}

}  // namespace
}  // namespace caraml::nn
