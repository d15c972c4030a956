// Tests for the epoch dataloader, streaming statistics, and GPT generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/loader.hpp"
#include "nn/gpt.hpp"
#include "nn/optim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace caraml {
namespace {

// --- ShuffledIndexSampler -----------------------------------------------------

TEST(Sampler, EpochCoversEveryIndexOnce) {
  data::ShuffledIndexSampler sampler(100, /*seed=*/7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(sampler.next());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
  EXPECT_EQ(sampler.epoch(), 0);
  sampler.next();  // rolls into epoch 1
  EXPECT_EQ(sampler.epoch(), 1);
}

TEST(Sampler, EpochsAreShuffledDifferently) {
  data::ShuffledIndexSampler sampler(64, 3);
  std::vector<std::int64_t> epoch0, epoch1;
  for (int i = 0; i < 64; ++i) epoch0.push_back(sampler.next());
  for (int i = 0; i < 64; ++i) epoch1.push_back(sampler.next());
  EXPECT_NE(epoch0, epoch1);
  // ...but each is a permutation.
  auto sorted0 = epoch0, sorted1 = epoch1;
  std::sort(sorted0.begin(), sorted0.end());
  std::sort(sorted1.begin(), sorted1.end());
  EXPECT_EQ(sorted0, sorted1);
}

TEST(Sampler, DeterministicPerSeedAndResumable) {
  data::ShuffledIndexSampler a(32, 11), b(32, 11);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(a.next(), b.next());
  // seek_epoch reproduces a fresh sampler advanced to that epoch.
  data::ShuffledIndexSampler resumed(32, 11);
  resumed.seek_epoch(1);
  data::ShuffledIndexSampler fresh(32, 11);
  for (int i = 0; i < 32; ++i) fresh.next();
  fresh.next();  // enter epoch 1
  resumed.next();
  EXPECT_EQ(resumed.epoch(), fresh.epoch());
}

TEST(Sampler, BatchSpansEpochBoundary) {
  data::ShuffledIndexSampler sampler(10, 5);
  const auto batch = sampler.next_batch(15);
  EXPECT_EQ(batch.size(), 15u);
  EXPECT_EQ(sampler.epoch(), 1);
  EXPECT_EQ(sampler.position(), 5);
}

TEST(Sampler, InvalidConfigRejected) {
  EXPECT_THROW(data::ShuffledIndexSampler(0, 1), Error);
  data::ShuffledIndexSampler sampler(4, 1);
  EXPECT_THROW(sampler.next_batch(0), Error);
  EXPECT_THROW(sampler.seek_epoch(-1), Error);
}

// --- ShardedEpochPlan -----------------------------------------------------------

TEST(ShardedPlan, RanksPartitionTheEpoch) {
  data::ShardedEpochPlan plan(103, 4, 9);
  std::set<std::int64_t> all;
  std::size_t total = 0;
  for (int r = 0; r < 4; ++r) {
    const auto shard = plan.shard(r, 0);
    total += shard.size();
    for (auto i : shard) {
      EXPECT_TRUE(all.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(total, 103u);
  EXPECT_EQ(all.size(), 103u);
}

TEST(ShardedPlan, IdenticalAcrossCallers) {
  data::ShardedEpochPlan a(50, 2, 13), b(50, 2, 13);
  EXPECT_EQ(a.shard(1, 3), b.shard(1, 3));
  EXPECT_NE(a.shard(0, 0), a.shard(0, 1));  // epochs differ
}

TEST(ShardedPlan, RankValidation) {
  data::ShardedEpochPlan plan(10, 2, 1);
  EXPECT_THROW(plan.shard(2, 0), Error);
  EXPECT_THROW(plan.shard(-1, 0), Error);
}

// --- RunningStats ------------------------------------------------------------------

TEST(Stats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, SingleValueHasZeroVariance) {
  RunningStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Stats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.normal(10.0, 2.0);
    (i < 40 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, EmptyMinThrows) {
  RunningStats stats;
  EXPECT_THROW(stats.min(), Error);
}

TEST(Stats, Percentiles) {
  std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 5.5);
  EXPECT_NEAR(percentile(values, 90), 9.1, 1e-12);
  EXPECT_THROW(percentile({}, 50), Error);
  EXPECT_THROW(percentile(values, 101), Error);
}

// --- GPT generation ------------------------------------------------------------------

nn::GptModelConfig tiny_config() {
  nn::GptModelConfig config;
  config.vocab_size = 8;
  config.block_size = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.embed_dim = 16;
  return config;
}

TEST(Generate, ProducesRequestedLengthInVocab) {
  Rng rng(31);
  nn::GptModel model(tiny_config(), rng);
  Rng sample_rng(1);
  const auto out = model.generate({1, 2, 3}, 10, 1.0f, sample_rng);
  ASSERT_EQ(out.size(), 13u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  for (auto id : out) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 8);
  }
}

TEST(Generate, GreedyIsDeterministic) {
  Rng rng(32);
  nn::GptModel model(tiny_config(), rng);
  Rng r1(1), r2(99);  // greedy ignores the rng
  EXPECT_EQ(model.generate({0, 1}, 6, 0.0f, r1),
            model.generate({0, 1}, 6, 0.0f, r2));
}

TEST(Generate, LearnsDeterministicCycle) {
  // Train on the repeating sequence 0,1,2,3,... and check greedy decoding
  // continues it.
  Rng rng(34);
  nn::GptModel model(tiny_config(), rng);
  nn::Adam optimizer(model.parameters(), 1e-2f);
  nn::Tensor tokens({2, 8});
  std::vector<std::int64_t> targets(16);
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t t = 0; t < 8; ++t) {
      tokens[b * 8 + t] = static_cast<float>((b + t) % 4);
      targets[static_cast<std::size_t>(b * 8 + t)] = (b + t + 1) % 4;
    }
  }
  for (int step = 0; step < 80; ++step) {
    optimizer.zero_grad();
    model.train_step(tokens, targets);
    optimizer.step();
  }
  Rng sample_rng(3);
  const auto out = model.generate({0, 1, 2}, 5, 0.0f, sample_rng);
  const std::vector<std::int64_t> expected = {0, 1, 2, 3, 0, 1, 2, 3};
  EXPECT_EQ(out, expected);
}

TEST(Generate, InvalidInputsRejected) {
  Rng rng(35);
  nn::GptModel model(tiny_config(), rng);
  Rng sample_rng(4);
  EXPECT_THROW(model.generate({}, 4, 1.0f, sample_rng), Error);
  EXPECT_THROW(model.generate({1}, 4, -1.0f, sample_rng), Error);
}

}  // namespace
}  // namespace caraml
