#include <gtest/gtest.h>

#include "models/gpt_cost.hpp"
#include "models/resnet_cost.hpp"
#include "util/error.hpp"

namespace caraml::models {
namespace {

// --- GPT parameter counts (the paper's model sizes) ----------------------------

TEST(GptConfig, Gpt800mTransformerParamsMatchName) {
  const GptConfig c = GptConfig::gpt_800m();
  // 12 * 16 * 2048^2 = 805M transformer parameters — the "800M" of the paper.
  EXPECT_NEAR(c.transformer_parameters(), 805.4e6, 1.0e6);
}

TEST(GptConfig, Gpt117mIsGpt2Small) {
  const GptConfig c = GptConfig::gpt_117m();
  EXPECT_EQ(c.num_layers, 12);
  EXPECT_EQ(c.hidden_size, 768);
  // ~85M transformer + ~38.6M embedding ≈ 124M total.
  EXPECT_NEAR(c.total_parameters(), 124e6, 3e6);
}

TEST(GptConfig, Gpt13bMatchesName) {
  EXPECT_NEAR(GptConfig::gpt_13b().transformer_parameters(), 12.6e9, 0.2e9);
}

TEST(GptConfig, Gpt175bMatchesName) {
  EXPECT_NEAR(GptConfig::gpt_175b().transformer_parameters(), 174e9, 2e9);
}

TEST(GptConfig, EmbeddingParamsAreVocabTimesHidden) {
  const GptConfig c = GptConfig::gpt_800m();
  EXPECT_DOUBLE_EQ(c.embedding_parameters(), 50257.0 * 2048.0);
}

TEST(GptConfig, LearnedPositionsAddParams) {
  GptConfig c = GptConfig::gpt_800m();
  const double rotary = c.embedding_parameters();
  c.rotary_embeddings = false;
  EXPECT_DOUBLE_EQ(c.embedding_parameters() - rotary, 2048.0 * 2048.0);
}

// --- GPT FLOPs ------------------------------------------------------------------

TEST(GptConfig, FlopsPerTokenForwardMatchesMegatronFormula) {
  const GptConfig c = GptConfig::gpt_800m();
  // 24*l*h^2*(1 + s/6h + V/16lh) with l=16, h=2048, s=2048, V=50257.
  const double expected =
      24.0 * 16 * 2048.0 * 2048.0 *
      (1.0 + 2048.0 / (6.0 * 2048.0) + 50257.0 / (16.0 * 16 * 2048.0));
  EXPECT_NEAR(c.flops_per_token_forward(), expected, 1.0);
}

TEST(GptConfig, TrainFlopsAreThreeTimesForward) {
  const GptConfig c = GptConfig::gpt_800m();
  EXPECT_DOUBLE_EQ(c.flops_per_token_train(),
                   3.0 * c.flops_per_token_forward());
}

TEST(GptConfig, RecomputeAddsOneForward) {
  GptConfig c = GptConfig::gpt_800m();
  c.activation_recompute = true;
  EXPECT_DOUBLE_EQ(c.flops_per_token_train(),
                   4.0 * c.flops_per_token_forward());
}

TEST(GptConfig, IterationFlopsScaleWithBatch) {
  const GptConfig c = GptConfig::gpt_800m();
  EXPECT_DOUBLE_EQ(c.flops_per_iteration(64), 4.0 * c.flops_per_iteration(16));
  EXPECT_EQ(c.tokens_per_iteration(16), 16 * 2048);
  EXPECT_THROW(c.flops_per_iteration(0), Error);
}

TEST(GptConfig, RoughlySixNFlopsPerToken) {
  // Sanity: training FLOPs/token ≈ 6 * parameters (within ~35%).
  const GptConfig c = GptConfig::gpt_800m();
  const double six_n = 6.0 * c.transformer_parameters();
  EXPECT_GT(c.flops_per_token_train(), six_n);
  EXPECT_LT(c.flops_per_token_train(), 1.4 * six_n);
}

// --- GPT memory ------------------------------------------------------------------

TEST(GptMemory, MixedPrecisionAdamIs18BytesPerParam) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.config.distributed_optimizer = false;
  EXPECT_NEAR(memory.model_state_bytes(),
              memory.config.total_parameters() * 18.0, 1.0);
}

TEST(GptMemory, Fp32AdamIs16BytesPerParamAtHalfPeak) {
  // fp32 doubles the weight bytes but is its own master copy: 4 + 4 + 8.
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.config.distributed_optimizer = false;
  memory.config.dtype = tensor::DType::kF32;
  EXPECT_NEAR(memory.model_state_bytes(),
              memory.config.total_parameters() * 16.0, 1.0);
  EXPECT_DOUBLE_EQ(memory.config.training_value_bytes(), 4.0);
  EXPECT_DOUBLE_EQ(memory.config.peak_flops_scale(), 0.5);
}

TEST(DTypeCost, OnlyInt8IsInferenceOnly) {
  EXPECT_TRUE(dtype_cost(tensor::DType::kF32).trainable);
  EXPECT_TRUE(dtype_cost(tensor::DType::kBf16).trainable);
  EXPECT_FALSE(dtype_cost(tensor::DType::kI8).trainable);
  // int8 quantizes weights, not the KV history.
  EXPECT_DOUBLE_EQ(dtype_cost(tensor::DType::kI8).value_bytes, 1.0);
  EXPECT_DOUBLE_EQ(dtype_cost(tensor::DType::kI8).kv_bytes, 2.0);
}

TEST(GptConfig, PresetTagsNameTheirPresets) {
  std::string tags;
  for (const auto& [tag, make] : kGptPresets) {
    EXPECT_EQ(make().name, std::string("GPT-") + tag);
    tags += std::string(tag) + " ";
  }
  EXPECT_EQ(tags, "117M 800M 13B 175B ");
}

TEST(GptMemory, DistributedOptimizerShardsState) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.data_parallel = 4;
  const double sharded = memory.model_state_bytes();
  memory.data_parallel = 1;
  const double full = memory.model_state_bytes();
  EXPECT_LT(sharded, full);
  EXPECT_NEAR(sharded, memory.config.total_parameters() * (6.0 + 3.0), 1.0);
}

TEST(GptMemory, TensorParallelDividesState) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_13b();
  const double full = memory.model_state_bytes();
  memory.tensor_parallel = 4;
  EXPECT_NEAR(memory.model_state_bytes(), full / 4.0, full * 1e-9);
}

TEST(GptMemory, ActivationsScaleWithMicroBatch) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.micro_batch = 4;
  const double four = memory.activation_bytes();
  memory.micro_batch = 8;
  EXPECT_NEAR(memory.activation_bytes(), 2.0 * four, four * 1e-9);
}

TEST(GptMemory, FlashAttentionRemovesQuadraticTerm) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.micro_batch = 4;
  const double with_flash = memory.activation_bytes();
  memory.config.flash_attention = false;
  EXPECT_GT(memory.activation_bytes(), with_flash);
}

TEST(GptMemory, FullRecomputeShrinksActivations) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.micro_batch = 4;
  const double normal = memory.activation_bytes();
  memory.config.activation_recompute = true;
  EXPECT_LT(memory.activation_bytes(), normal);
}

TEST(GptMemory, Gpt800mFitsOn40GbDevice) {
  // Paper §III-A1: the 800M model fits within a single device on both AMD
  // and NVIDIA hardware (micro-batch 4, distributed optimizer).
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  memory.micro_batch = 4;
  memory.data_parallel = 4;
  EXPECT_LT(memory.total_bytes(), 40e9);
}

TEST(GptMemory, Gpt13bNeedsModelParallelism) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_13b();
  memory.micro_batch = 1;
  EXPECT_GT(memory.total_bytes(), 96e9);  // does not fit one GH200
  memory.tensor_parallel = 4;
  EXPECT_LT(memory.total_bytes(), 96e9);  // fits with tp=4
}

TEST(GptMemory, GradientCommBytesShardWithModelParallel) {
  GptMemoryModel memory;
  memory.config = GptConfig::gpt_800m();
  const double full = memory.gradient_comm_bytes();
  memory.tensor_parallel = 2;
  memory.pipeline_parallel = 2;
  EXPECT_NEAR(memory.gradient_comm_bytes(), full / 4.0, 1.0);
}

// --- ResNet -----------------------------------------------------------------------

TEST(ResNet, ResNet50ParameterCountMatchesLiterature) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet50);
  EXPECT_NEAR(model.total_parameters(), 25.56e6, 0.3e6);
}

TEST(ResNet, ResNet50ForwardFlopsMatchLiterature) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet50);
  // ~4.1 GMACs = ~8.2 GFLOP forward at 224x224.
  EXPECT_NEAR(model.forward_flops_per_image(), 8.2e9, 0.4e9);
  EXPECT_DOUBLE_EQ(model.train_flops_per_image(),
                   3.0 * model.forward_flops_per_image());
}

TEST(ResNet, ResNet18ParameterCount) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet18);
  EXPECT_NEAR(model.total_parameters(), 11.2e6, 0.5e6);
}

TEST(ResNet, ResNet34ParameterCount) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet34);
  EXPECT_NEAR(model.total_parameters(), 21.3e6, 0.8e6);
}

TEST(ResNet, LayerTableShapesAreConsistent) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet50);
  // Stem output 112, stages end at 7x7; final FC layer is 2048 -> 1000.
  EXPECT_EQ(model.layers.front().out_h, 112);
  const ConvLayerSpec& fc = model.layers.back();
  EXPECT_EQ(fc.name, "fc");
  EXPECT_EQ(fc.in_channels, 2048);
  EXPECT_EQ(fc.out_channels, 1000);
  EXPECT_EQ(fc.out_h, 1);
  // 53 convs + fc for ResNet50 (49 block convs + 4 downsamples + stem).
  EXPECT_EQ(model.layers.size(), 54u);
}

TEST(ResNet, DeeperVariantsCostMore) {
  const double r18 =
      ResNetModel::build(ResNetVariant::kResNet18).forward_flops_per_image();
  const double r34 =
      ResNetModel::build(ResNetVariant::kResNet34).forward_flops_per_image();
  const double r50 =
      ResNetModel::build(ResNetVariant::kResNet50).forward_flops_per_image();
  EXPECT_LT(r18, r34);
  EXPECT_LT(r34, r50);
}

TEST(ResNet, ActivationAndStateBytesPositive) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet50);
  EXPECT_GT(model.activation_bytes_per_image(), 10e6);
  EXPECT_LT(model.activation_bytes_per_image(), 100e6);
  EXPECT_NEAR(model.model_state_bytes(), model.total_parameters() * 14.0, 1.0);
  EXPECT_DOUBLE_EQ(model.gradient_comm_bytes(),
                   model.total_parameters() * 2.0);
  EXPECT_DOUBLE_EQ(model.input_bytes_per_image(), 3.0 * 224 * 224);
}

TEST(ResNet, SmallImageVariant) {
  const ResNetModel model =
      ResNetModel::build(ResNetVariant::kResNet18, /*image_size=*/32);
  EXPECT_LT(model.forward_flops_per_image(),
            ResNetModel::build(ResNetVariant::kResNet18).forward_flops_per_image());
  EXPECT_THROW(ResNetModel::build(ResNetVariant::kResNet18, 16), Error);
}

TEST(ResNet, VariantNames) {
  EXPECT_EQ(resnet_variant_name(ResNetVariant::kResNet50), "ResNet50");
  EXPECT_EQ(resnet_variant_name(ResNetVariant::kResNet18), "ResNet18");
}

TEST(ResNet, VariantTagsNameTheirVariants) {
  for (const auto& [tag, variant] : kResNetVariants) {
    EXPECT_EQ("resnet" + resnet_variant_name(variant).substr(6), tag);
  }
}

TEST(ResNet, DeviceMemorySumsStateActivationsAndWorkspace) {
  const ResNetModel model = ResNetModel::build(ResNetVariant::kResNet50);
  const ResNetDeviceMemory memory = model.device_memory(64);
  EXPECT_DOUBLE_EQ(memory.state, model.model_state_bytes());
  EXPECT_DOUBLE_EQ(memory.activations,
                   64.0 * model.activation_bytes_per_image());
  EXPECT_DOUBLE_EQ(memory.total(),
                   memory.state + memory.activations + memory.workspace);
}

struct FlopCase {
  ResNetVariant variant;
  double min_flops, max_flops;
};
class ResNetFlops : public ::testing::TestWithParam<FlopCase> {};
TEST_P(ResNetFlops, ForwardFlopsInRange) {
  const ResNetModel model = ResNetModel::build(GetParam().variant);
  EXPECT_GE(model.forward_flops_per_image(), GetParam().min_flops);
  EXPECT_LE(model.forward_flops_per_image(), GetParam().max_flops);
}
// gtest_discover_tests names each case after gtest's byte dump of its FlopCase.
// A static array is zero-initialized first, padding included, so the dump (and
// the ctest name) is the same on every build; temporaries leave stack garbage.
constexpr FlopCase kFlopCases[] = {
    {ResNetVariant::kResNet18, 3.0e9, 4.2e9},
    {ResNetVariant::kResNet34, 6.5e9, 8.0e9},
    {ResNetVariant::kResNet50, 7.8e9, 8.6e9},
};
INSTANTIATE_TEST_SUITE_P(Models, ResNetFlops, ::testing::ValuesIn(kFlopCases));

}  // namespace
}  // namespace caraml::models
