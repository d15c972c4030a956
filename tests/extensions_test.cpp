// Tests for the extension modules: LR schedules, ZeRO-style
// distributed Adam, token files, chrome-trace export, jpwr CSV combining,
// and the inference benchmark.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/inference.hpp"
#include "data/synthetic.hpp"
#include "data/token_file.hpp"
#include "nn/optim.hpp"
#include "nn/schedule.hpp"
#include "par/comm.hpp"
#include "par/distributed_optim.hpp"
#include "power/combine.hpp"
#include "sim/trace_export.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caraml {
namespace {

// --- LR schedules --------------------------------------------------------------

TEST(LrSchedule, ConstantIsConstant) {
  nn::ConstantLr schedule(0.01f);
  EXPECT_FLOAT_EQ(schedule.lr_at(0), 0.01f);
  EXPECT_FLOAT_EQ(schedule.lr_at(1000000), 0.01f);
}

TEST(LrSchedule, WarmupRampsLinearly) {
  nn::WarmupCosineLr schedule(1.0f, 0.1f, 10, 100);
  EXPECT_NEAR(schedule.lr_at(0), 0.1f, 1e-6);   // (0+1)/10 of peak
  EXPECT_NEAR(schedule.lr_at(4), 0.5f, 1e-6);
  EXPECT_NEAR(schedule.lr_at(9), 1.0f, 1e-6);
}

TEST(LrSchedule, CosineDecaysToMinimum) {
  nn::WarmupCosineLr schedule(1.0f, 0.1f, 10, 110);
  EXPECT_NEAR(schedule.lr_at(10), 1.0f, 1e-5);          // decay start
  EXPECT_NEAR(schedule.lr_at(60), 0.55f, 1e-3);          // halfway
  EXPECT_NEAR(schedule.lr_at(110), 0.1f, 1e-5);          // end
  EXPECT_NEAR(schedule.lr_at(10000), 0.1f, 1e-6);        // flat after
}

TEST(LrSchedule, CosineIsMonotoneAfterWarmup) {
  nn::WarmupCosineLr schedule(3e-4f, 3e-5f, 100, 1000);
  float prev = schedule.lr_at(100);
  for (std::int64_t step = 101; step <= 1000; step += 7) {
    const float lr = schedule.lr_at(step);
    EXPECT_LE(lr, prev + 1e-9);
    prev = lr;
  }
}

TEST(LrSchedule, StepDecayBoundaries) {
  nn::StepDecayLr schedule(1.0f, 0.1f, {30, 60});
  EXPECT_FLOAT_EQ(schedule.lr_at(0), 1.0f);
  EXPECT_FLOAT_EQ(schedule.lr_at(29), 1.0f);
  EXPECT_FLOAT_EQ(schedule.lr_at(30), 0.1f);
  EXPECT_NEAR(schedule.lr_at(60), 0.01f, 1e-8);
}

TEST(LrSchedule, InvalidConfigThrows) {
  EXPECT_THROW(nn::WarmupCosineLr(1.0f, 2.0f, 10, 100), Error);
  EXPECT_THROW(nn::WarmupCosineLr(1.0f, 0.1f, 100, 50), Error);
  EXPECT_THROW(nn::StepDecayLr(1.0f, 1.5f, {10}), Error);
  EXPECT_THROW(nn::StepDecayLr(1.0f, 0.5f, {20, 10}), Error);
}

// --- distributed Adam --------------------------------------------------------------

TEST(DistributedAdam, MatchesSerialAdamExactly) {
  // Property: with identical gradients on every rank, ZeRO-sharded Adam must
  // produce the same trajectory as serial Adam.
  const std::int64_t n = 13;  // deliberately not divisible by ranks
  std::vector<float> reference(static_cast<std::size_t>(n));
  {
    Rng rng(5);
    nn::Parameter w("w", nn::Tensor::randn({n}, rng));
    nn::Adam serial({&w}, 0.05f);
    for (int step = 0; step < 10; ++step) {
      serial.zero_grad();
      for (std::int64_t i = 0; i < n; ++i) {
        w.grad[i] = w.value[i] * 0.5f + static_cast<float>(i) * 0.01f;
      }
      serial.step();
    }
    for (std::int64_t i = 0; i < n; ++i) {
      reference[static_cast<std::size_t>(i)] = w.value[i];
    }
  }

  for (int ranks : {2, 3, 4}) {
    std::vector<std::vector<float>> results(static_cast<std::size_t>(ranks));
    par::DeviceGroup group(ranks);
    group.run([&](par::Communicator& comm) {
      Rng rng(5);  // identical init on every rank
      nn::Parameter w("w", nn::Tensor::randn({n}, rng));
      par::DistributedAdam optimizer({&w}, comm, 0.05f);
      for (int step = 0; step < 10; ++step) {
        optimizer.zero_grad();
        for (std::int64_t i = 0; i < n; ++i) {
          w.grad[i] = w.value[i] * 0.5f + static_cast<float>(i) * 0.01f;
        }
        optimizer.step();
      }
      auto& mine = results[static_cast<std::size_t>(comm.rank())];
      for (std::int64_t i = 0; i < n; ++i) mine.push_back(w.value[i]);
    });
    for (int r = 0; r < ranks; ++r) {
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(results[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(i)],
                    reference[static_cast<std::size_t>(i)], 1e-5f)
            << "ranks=" << ranks << " r=" << r << " i=" << i;
      }
    }
  }
}

TEST(DistributedAdam, ShardsOptimizerState) {
  par::DeviceGroup group(4);
  group.run([&](par::Communicator& comm) {
    Rng rng(1);
    nn::Parameter w("w", nn::Tensor::randn({100}, rng));
    par::DistributedAdam optimizer({&w}, comm, 0.01f);
    // Each rank holds ~1/4 of the m+v state: 2 * 25 floats.
    ASSERT_LE(optimizer.local_state_bytes(), 2 * 25 * 4);
    ASSERT_EQ(optimizer.total_parameters(), 100);
    ASSERT_LE(optimizer.shard_end() - optimizer.shard_begin(), 25);
  });
}

TEST(DistributedAdam, MultipleParameterTensors) {
  par::DeviceGroup group(2);
  group.run([&](par::Communicator& comm) {
    Rng rng(9);
    nn::Parameter a("a", nn::Tensor::randn({3, 2}, rng));
    nn::Parameter b("b", nn::Tensor::randn({5}, rng));
    par::DistributedAdam optimizer({&a, &b}, comm, 0.1f);
    ASSERT_EQ(optimizer.total_parameters(), 11);
    optimizer.zero_grad();
    for (std::int64_t i = 0; i < 6; ++i) a.grad[i] = 1.0f;
    for (std::int64_t i = 0; i < 5; ++i) b.grad[i] = 1.0f;
    optimizer.step();
    // First Adam step with constant gradient moves every weight by ~lr.
    ASSERT_NEAR(a.value[0], a.value[0], 0.0f);  // well-defined (no NaN)
    ASSERT_EQ(optimizer.step_count(), 1);
  });
}

// --- token files --------------------------------------------------------------------

TEST(TokenFile, RoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "caraml_tokens.bin").string();
  const std::vector<std::int32_t> tokens = {0, 1, 50256, 42, 7};
  data::save_token_file(path, tokens);
  EXPECT_EQ(data::load_token_file(path), tokens);
  std::filesystem::remove(path);
}

TEST(TokenFile, EmptyStreamRoundTrips) {
  const auto path =
      (std::filesystem::temp_directory_path() / "caraml_empty.bin").string();
  data::save_token_file(path, {});
  EXPECT_TRUE(data::load_token_file(path).empty());
  std::filesystem::remove(path);
}

TEST(TokenFile, RejectsBadMagicAndTruncation) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto bad = (dir / "caraml_bad.bin").string();
  {
    std::ofstream out(bad, std::ios::binary);
    out << "NOTMAGIC and then some bytes";
  }
  EXPECT_THROW(data::load_token_file(bad), ParseError);

  // Truncate a valid file mid-payload.
  const auto trunc = (dir / "caraml_trunc.bin").string();
  data::save_token_file(trunc, {1, 2, 3, 4, 5, 6, 7, 8});
  std::filesystem::resize_file(trunc, 24);  // header survives, payload cut
  EXPECT_THROW(data::load_token_file(trunc), ParseError);
  std::filesystem::remove(bad);
  std::filesystem::remove(trunc);
  EXPECT_THROW(data::load_token_file("/nonexistent/tokens.bin"), Error);
}

namespace {

/// Error text of load_token_file() on `path`, "" when it unexpectedly loads.
std::string load_error(const std::string& path) {
  try {
    data::load_token_file(path);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

/// Patch `bytes` at `offset` into an otherwise valid 3-token file.
std::string crafted_token_file(const std::string& name, std::size_t offset,
                               const std::string& bytes) {
  const auto path =
      (std::filesystem::temp_directory_path() / name).string();
  data::save_token_file(path, {10, 20, 30});
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

}  // namespace

TEST(TokenFile, TruncatedHeaderNamesPathAndSizes) {
  const auto path =
      (std::filesystem::temp_directory_path() / "caraml_short.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "CARAML";  // 6 bytes, header needs 20
  }
  const std::string error = load_error(path);
  EXPECT_NE(error.find(path), std::string::npos);
  EXPECT_NE(error.find("6 bytes"), std::string::npos);
  EXPECT_NE(error.find("20"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TokenFile, BadMagicDiagnosticNamesOffsetAndExpectation) {
  const auto path = crafted_token_file("caraml_magic.bin", 0, "WRONGMAG");
  const std::string error = load_error(path);
  EXPECT_NE(error.find(path), std::string::npos);
  EXPECT_NE(error.find("offset 0"), std::string::npos);
  EXPECT_NE(error.find("CARAMLTK"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TokenFile, UnsupportedVersionDiagnosticNamesBothVersions) {
  const auto path = crafted_token_file(
      "caraml_version.bin", 8, std::string("\x07\x00\x00\x00", 4));
  const std::string error = load_error(path);
  EXPECT_NE(error.find("version 7"), std::string::npos);
  EXPECT_NE(error.find("offset 8"), std::string::npos);
  EXPECT_NE(error.find("expected 1"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TokenFile, CountMismatchReportsExpectedVsActualSize) {
  // Claim 5 tokens in a file that holds 3: expected 20+5*4=40, found 32.
  const auto path = crafted_token_file(
      "caraml_count.bin", 12, std::string("\x05\x00\x00\x00\x00\x00\x00\x00", 8));
  const std::string error = load_error(path);
  EXPECT_NE(error.find("offset 12"), std::string::npos);
  EXPECT_NE(error.find("claims 5"), std::string::npos);
  EXPECT_NE(error.find("40 bytes"), std::string::npos);
  EXPECT_NE(error.find("32 bytes"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TokenFile, TrailingGarbageRejected) {
  const auto path =
      (std::filesystem::temp_directory_path() / "caraml_trail.bin").string();
  data::save_token_file(path, {1, 2, 3});
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  EXPECT_THROW(data::load_token_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TokenFile, AbsurdCountFailsFastWithoutAllocating) {
  // count = 2^62: validated against the real file size before any allocation,
  // so this throws ParseError instead of std::bad_alloc.
  const auto path = crafted_token_file(
      "caraml_huge.bin", 12,
      std::string("\x00\x00\x00\x00\x00\x00\x00\x40", 8));
  EXPECT_THROW(data::load_token_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TokenFile, PreprocessPipeline) {
  Rng rng(11);
  const std::string corpus = data::synthetic_oscar_text(400, rng);
  const auto prefix =
      (std::filesystem::temp_directory_path() / "caraml_corpus").string();
  const auto result = data::preprocess_corpus(corpus, 320, prefix);
  EXPECT_EQ(result.corpus_bytes, corpus.size());
  EXPECT_GT(result.bytes_per_token, 1.0);  // BPE compresses
  EXPECT_EQ(result.vocab_size, 320u);

  const auto tokens = data::load_preprocessed_tokens(prefix);
  EXPECT_EQ(tokens.size(), result.num_tokens);
  const auto tokenizer = data::load_preprocessed_tokenizer(prefix);
  EXPECT_EQ(tokenizer.decode(tokens), corpus);
  std::filesystem::remove(prefix + ".tokens");
  std::filesystem::remove(prefix + ".bpe");
}

// --- trace export --------------------------------------------------------------------

TEST(TraceExport, ChromeTraceContainsTracksAndEvents) {
  sim::TaskGraph graph;
  auto* dev = graph.add_resource("gpu0");
  auto* link = graph.add_resource("nvlink");
  const auto compute = graph.add_task(dev, 1.0, 0.4, "fwd");
  const auto transfer = graph.add_task(link, 0.5, 0.2, "allreduce");
  graph.add_dependency(compute, transfer);
  graph.run();

  const std::string json = sim::to_chrome_trace(graph);
  EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"nvlink\""), std::string::npos);
  EXPECT_NE(json.find("\"fwd\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000000"), std::string::npos);  // 1 s = 1e6 us
}

TEST(TraceExport, FileWriteAndUtilizationSummary) {
  sim::TaskGraph graph;
  auto* dev = graph.add_resource("dev");
  graph.add_task(dev, 2.0, 0.5, "a");
  graph.add_task(dev, 2.0, 1.0, "b");
  auto* idle = graph.add_resource("idle");
  (void)idle;
  graph.run();

  const auto summary = sim::utilization_summary(graph);
  ASSERT_EQ(summary.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(summary.column("busy_s").as_double(0), 4.0);
  EXPECT_DOUBLE_EQ(summary.column("busy_fraction").as_double(0), 1.0);
  EXPECT_DOUBLE_EQ(summary.column("mean_utilization").as_double(0), 0.75);
  EXPECT_DOUBLE_EQ(summary.column("busy_s").as_double(1), 0.0);

  const auto path =
      (std::filesystem::temp_directory_path() / "caraml_trace.json").string();
  sim::write_chrome_trace(graph, path);
  EXPECT_GT(std::filesystem::file_size(path), 100u);
  std::filesystem::remove(path);
}

// --- jpwr CSV combine -------------------------------------------------------------------

TEST(Combine, MergesRankFilesAndAggregates) {
  const auto dir = std::filesystem::temp_directory_path() / "caraml_combine";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto write = [&](const std::string& name, double energy, double watts) {
    std::ofstream out(dir / name);
    out << "channel,energy_wh,avg_watts\n";
    out << "pynvml:gpu0," << energy << "," << watts << "\n";
    out << "gh:grace0," << energy / 4 << "," << watts / 4 << "\n";
  };
  write("energy_0.csv", 10.0, 600.0);
  write("energy_1.csv", 12.0, 640.0);
  write("energy_2.csv", 11.0, 620.0);

  const auto combined = power::combine_rank_csvs(dir.string());
  EXPECT_EQ(combined.num_rows(), 6u);
  EXPECT_TRUE(combined.has_column("rank"));
  EXPECT_EQ(combined.column("rank").as_string(0), "0");
  EXPECT_EQ(combined.column("rank").as_string(4), "2");

  const auto aggregated = power::aggregate_energy(combined);
  ASSERT_EQ(aggregated.num_rows(), 2u);
  EXPECT_EQ(aggregated.column("channel").as_string(0), "pynvml:gpu0");
  EXPECT_NEAR(aggregated.column("total_energy_wh").as_double(0), 33.0, 1e-9);
  EXPECT_NEAR(aggregated.column("mean_avg_watts").as_double(0), 620.0, 1e-9);
  EXPECT_NEAR(aggregated.column("max_avg_watts").as_double(0), 640.0, 1e-9);
  EXPECT_EQ(aggregated.column("ranks").as_int(0), 3);
  std::filesystem::remove_all(dir);
}

TEST(Combine, NoFilesThrows) {
  const auto dir = std::filesystem::temp_directory_path() / "caraml_nofiles";
  std::filesystem::create_directories(dir);
  EXPECT_THROW(power::combine_rank_csvs(dir.string()), NotFound);
  std::filesystem::remove_all(dir);
}

// --- inference benchmark ----------------------------------------------------------------

TEST(Inference, DecodeIsMemoryBoundAtSmallBatch) {
  core::InferenceConfig config;
  config.system_tag = "GH200";
  config.batch = 1;
  const auto result = core::run_llm_inference(config);
  ASSERT_FALSE(result.oom);
  // Step latency ~= weight bytes / memory bandwidth.
  const double weight_stream =
      config.model.total_parameters() * 2.0 / 4.0e12;  // 4 TB/s HBM3
  EXPECT_NEAR(result.decode_time_per_token_s, weight_stream,
              weight_stream * 0.6);
}

TEST(Inference, BatchingRaisesAggregateThroughput) {
  double prev = 0.0;
  for (std::int64_t batch : {1, 4, 16, 64}) {
    core::InferenceConfig config;
    config.system_tag = "A100";
    config.batch = batch;
    const auto result = core::run_llm_inference(config);
    ASSERT_FALSE(result.oom);
    EXPECT_GT(result.tokens_per_s_total, prev);
    prev = result.tokens_per_s_total;
  }
}

TEST(Inference, BandwidthOrdersSmallBatchLatency) {
  // GH200 (4 TB/s) must decode faster than A100 (1.55 TB/s) at batch 1.
  core::InferenceConfig config;
  config.batch = 1;
  config.system_tag = "GH200";
  const auto gh = core::run_llm_inference(config);
  config.system_tag = "A100";
  const auto a100 = core::run_llm_inference(config);
  EXPECT_GT(gh.tokens_per_s_per_user, 1.5 * a100.tokens_per_s_per_user);
}

TEST(Inference, KvCacheGrowsWithBatchUntilOom) {
  // 13B fp16 weights are ~26 GB; on a 40 GB A100 the KV cache (0.8 MB per
  // cached token per sequence) exhausts memory as the batch grows.
  core::InferenceConfig config;
  config.system_tag = "A100";
  config.model = models::GptConfig::gpt_13b();
  config.batch = 1;
  EXPECT_FALSE(core::run_llm_inference(config).oom);
  config.batch = 64;
  EXPECT_TRUE(core::run_llm_inference(config).oom);
  // The 96 GB GH200 sustains the same batch.
  config.system_tag = "GH200";
  const auto fits = core::run_llm_inference(config);
  EXPECT_FALSE(fits.oom);
  EXPECT_GT(fits.kv_cache_bytes, 0.0);
}

TEST(Inference, EnergyPerTokenFallsWithBatching) {
  core::InferenceConfig small;
  small.system_tag = "WAIH100";
  small.batch = 1;
  core::InferenceConfig large = small;
  large.batch = 64;
  EXPECT_LT(core::run_llm_inference(large).energy_per_1k_tokens_wh,
            core::run_llm_inference(small).energy_per_1k_tokens_wh);
}

TEST(Inference, LatencyBudgetAccounting) {
  core::InferenceConfig config;
  config.system_tag = "H100";
  config.batch = 8;
  const auto result = core::run_llm_inference(config);
  EXPECT_NEAR(result.request_latency_s,
              result.time_to_first_token_s +
                  result.decode_time_per_token_s * config.generate_tokens,
              1e-9);
  EXPECT_GT(result.avg_power_w, 0.0);
  EXPECT_LE(result.avg_power_w, 700.0 + 1e-9);
}

TEST(Inference, InvalidConfigRejected) {
  core::InferenceConfig config;
  config.batch = 0;
  EXPECT_THROW(core::run_llm_inference(config), Error);
  config.batch = 1;
  config.system_tag = "GC200";
  EXPECT_THROW(core::run_llm_inference(config), Error);
}

TEST(Inference, ServingDtypeOrdersThroughputAndLatency) {
  // int8 streams 1 B/param and doubles the prefill peak; fp32 streams
  // 4 B/param and halves it. Decode is weight-streaming-bound, so the
  // aggregate throughput and TTFT must strictly order int8 > bf16 > fp32.
  core::InferenceConfig config;
  config.system_tag = "GH200";
  config.batch = 8;
  config.dtype = "int8";
  const auto int8 = core::run_llm_inference(config);
  config.dtype = "bf16";
  const auto bf16 = core::run_llm_inference(config);
  config.dtype = "fp32";
  const auto fp32 = core::run_llm_inference(config);
  ASSERT_FALSE(int8.oom);
  ASSERT_FALSE(bf16.oom);
  ASSERT_FALSE(fp32.oom);
  EXPECT_GT(int8.tokens_per_s_total, bf16.tokens_per_s_total);
  EXPECT_GT(bf16.tokens_per_s_total, fp32.tokens_per_s_total);
  EXPECT_LT(int8.time_to_first_token_s, bf16.time_to_first_token_s);
  EXPECT_LT(bf16.time_to_first_token_s, fp32.time_to_first_token_s);
}

TEST(Inference, ServingDtypeSizesKvCache) {
  // fp32 keeps a 4-byte KV cache (2x bf16); int8 keeps the cache at fp16
  // (KV quantization is out of scope), so its KV matches bf16 exactly.
  core::InferenceConfig config;
  config.system_tag = "GH200";
  config.batch = 16;
  const auto bf16 = core::run_llm_inference(config);
  config.dtype = "fp32";
  const auto fp32 = core::run_llm_inference(config);
  config.dtype = "int8";
  const auto int8 = core::run_llm_inference(config);
  ASSERT_GT(bf16.kv_cache_bytes, 0.0);
  EXPECT_DOUBLE_EQ(fp32.kv_cache_bytes, 2.0 * bf16.kv_cache_bytes);
  EXPECT_DOUBLE_EQ(int8.kv_cache_bytes, bf16.kv_cache_bytes);
}

TEST(Inference, ServingDtypeUnblocksOom) {
  // 13B at batch 32 OOMs a 40 GB A100 in bf16 (26 GB weights + ~17 GB KV)
  // but fits once int8 halves the weight footprint to 13 GB.
  core::InferenceConfig config;
  config.system_tag = "A100";
  config.model = models::GptConfig::gpt_13b();
  config.batch = 32;
  EXPECT_TRUE(core::run_llm_inference(config).oom);
  config.dtype = "int8";
  EXPECT_FALSE(core::run_llm_inference(config).oom);
}

TEST(Inference, UnknownDtypeRejected) {
  core::InferenceConfig config;
  config.dtype = "fp8";
  EXPECT_THROW(core::run_llm_inference(config), InvalidArgument);
}

}  // namespace
}  // namespace caraml
