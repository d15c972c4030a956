// caraml_e2e — one end-to-end workload of the CPU training stack per process.
//
// caraml_e2e reaches every layer only through its public functions and times
// each call from outside: synthetic corpus and BPE (data), GPT / ResNet
// modules, losses and optimizers (nn), the data-parallel trainer and its
// all-reduce (par), GEMMs (tensor) and the global thread pool (util). Spans
// are recorded in this file only, around those calls; the program itself is
// not instrumented.
//
//   caraml_e2e --workload NAME --seed N --seconds S [--setups K]
//              [--trace-out PATH]
//
// Every input is generated from --seed during set-up. Set-up (data, BPE,
// model build and three warm-up operations) runs --setups times and the last
// instance is measured in a closed loop with one caller for --seconds. With
// --trace-out, set-up and window are traced into the Chrome trace PATH, and a
// fixed set of layer probes runs after it, untraced.
//
// Prints one JSON object on stdout: raw per-operation latencies, set-up
// durations, correctness results and (traced) probe values. bench/e2e/run.py
// turns them into the metrics BENCHMARK.json declares.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "data/bpe.hpp"
#include "data/synthetic.hpp"
#include "models/gpt_cost.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/gpt.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/resnet.hpp"
#include "par/comm.hpp"
#include "par/data_parallel.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace caraml;
using tensor::Tensor;
namespace json = telemetry::json;
using Clock = std::chrono::steady_clock;

// --- workload shapes (README.md gives the reason for each) ------------------

constexpr std::int64_t kGptEmbed = 128;
constexpr std::int64_t kGptLayers = 4;
constexpr std::int64_t kGptHeads = 4;
constexpr std::int64_t kGptBlock = 128;
constexpr std::size_t kGptVocab = 512;
constexpr std::size_t kGptCorpusWords = 2000;
constexpr float kAdamLr = 3e-3f;

constexpr std::int64_t kTrainBatch = 4;
constexpr std::int64_t kTrainSeq = 128;

constexpr int kDpWorld = 2;
constexpr std::int64_t kDpBatch = 2;
constexpr std::int64_t kDpSeq = 64;
// Steps per DataParallelTrainer::train call; each call spawns the rank
// threads and re-broadcasts parameters, so the window runs them in chunks.
constexpr std::int64_t kDpChunk = 8;

constexpr std::int64_t kPromptTokens = 16;
constexpr std::int64_t kNewTokens = 24;

constexpr std::int64_t kImageBatch = 16;
constexpr std::int64_t kImageSize = 32;
constexpr std::int64_t kImageClasses = 10;
constexpr float kSgdLr = 0.05f;

constexpr std::size_t kTokCorpusWords = 8000;
constexpr std::size_t kTokVocab = 1024;
constexpr int kDocBits = 6;  // 64 document lengths per cycle
constexpr double kDocMinWords = 32.0;
constexpr double kDocMaxWords = 1024.0;

constexpr int kWarmupOps = 3;

// --- small helpers -----------------------------------------------------------

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  CARAML_CHECK_MSG(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// RAII span on the calling thread's device track "dev<N>". That is the
/// track naming `caraml analyse-trace` reads as device compute, so its
/// critical-path and imbalance detectors see these spans (TELEMETRY_SPAN
/// would record on "thread/<n>" tracks, which they skip). Free when tracing
/// is off.
class DeviceSpan {
 public:
  explicit DeviceSpan(const char* name,
                      telemetry::Tracer& tracer = telemetry::Tracer::global())
      : tracer_(tracer.enabled() ? &tracer : nullptr), name_(name) {
    if (tracer_ != nullptr) start_s_ = tracer_->now();
  }
  ~DeviceSpan() {
    if (tracer_ == nullptr) return;
    const double end_s = tracer_->now();
    tracer_->add_span(name_, tracer_->track("dev" + std::to_string(device_)),
                      start_s_, end_s - start_s_);
  }
  DeviceSpan(const DeviceSpan&) = delete;
  DeviceSpan& operator=(const DeviceSpan&) = delete;

  /// Track of the calling thread's later spans (0 until set).
  static void set_device(int device) { device_ = device; }

 private:
  static inline thread_local int device_ = 0;
  telemetry::Tracer* tracer_;
  const char* name_;
  double start_s_ = 0.0;
};

/// Median wall time in ms of `reps` calls of `fn`, after one untimed call.
double time_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_since(t0));
  }
  return median(samples);
}

/// Times one phase of an operation into `sink`, inside a span.
class Phase {
 public:
  Phase(const char* name, std::vector<double>& sink)
      : span_(name), sink_(sink), t0_(Clock::now()) {}
  ~Phase() { sink_.push_back(ms_since(t0_)); }

 private:
  DeviceSpan span_;
  std::vector<double>& sink_;
  Clock::time_point t0_;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.next_u64();
}

std::vector<std::int64_t> ids_of(const Tensor& row) {
  std::vector<std::int64_t> ids(static_cast<std::size_t>(row.numel()));
  for (std::int64_t i = 0; i < row.numel(); ++i) {
    ids[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(row[i]);
  }
  return ids;
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0.0;
}

/// CPU seconds used by all threads of this process.
double process_cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// --- shared inputs ----------------------------------------------------------

/// words[begin, end) joined by single spaces.
std::string join_words(const std::vector<std::string>& words,
                       std::size_t begin, std::size_t end) {
  std::string out;
  for (std::size_t w = begin; w < end; ++w) {
    if (w > begin) out += ' ';
    out += words[w];
  }
  return out;
}

/// Corpus -> trained BPE -> token stream.
struct TextData {
  data::BpeTokenizer tokenizer;
  std::vector<std::int32_t> tokens;
  std::vector<std::string> words;
  double bpe_train_s = 0.0;
};

/// Encodes in 64-word chunks: BpeTokenizer::encode is quadratic in its input
/// length (README.md, defect 1), so one call over the corpus would dominate
/// set-up.
TextData make_gpt_text(std::uint64_t seed) {
  DeviceSpan span("setup.text");
  TextData text;
  Rng rng(derive_seed(seed, 1));
  const std::string corpus = data::synthetic_oscar_text(kGptCorpusWords, rng);
  {
    DeviceSpan span("data.bpe_train");
    const auto t0 = Clock::now();
    text.tokenizer.train(corpus, kGptVocab);
    text.bpe_train_s = ms_since(t0) / 1e3;
  }
  DeviceSpan encode_span("data.encode");
  text.words = str::split_ws(corpus);
  for (std::size_t w = 0; w < text.words.size(); w += 64) {
    const std::size_t end = std::min(text.words.size(), w + 64);
    const auto ids =
        text.tokenizer.encode(join_words(text.words, w, end) + " ");
    text.tokens.insert(text.tokens.end(), ids.begin(), ids.end());
  }
  return text;
}

nn::GptModelConfig gpt_config() {
  nn::GptModelConfig config;
  config.vocab_size = static_cast<std::int64_t>(kGptVocab);
  config.block_size = kGptBlock;
  config.num_layers = kGptLayers;
  config.num_heads = kGptHeads;
  config.embed_dim = kGptEmbed;
  return config;
}

// --- workloads --------------------------------------------------------------

/// Samples of one measured window.
struct Window {
  std::vector<double> op_ms;
  std::int64_t items = 0;
  std::int64_t failed = 0;

  void record(double ms, std::int64_t n, bool ok) {
    op_ms.push_back(ms);
    items += n;
    if (!ok) ++failed;
  }
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs `ops` operations, recording each in `window`.
  virtual void run(Window& window, std::int64_t ops) = 0;
  /// Operations per run() call inside the measured window.
  virtual std::int64_t chunk() const { return 1; }
  /// Correctness checks over the whole run, made after the window.
  virtual std::vector<Check> checks() { return {}; }
  /// Workload-specific fields of the result.
  virtual void report(json::Object& /*out*/) const {}
};

/// The training workloads' loss check: the mean loss over the last 10% of
/// the steps is below the first step's loss.
Check loss_decreases(const std::vector<float>& losses) {
  Check check{"loss_decreases", false, "no steps"};
  if (losses.empty()) return check;
  const std::size_t tail = std::max<std::size_t>(1, losses.size() / 10);
  double sum = 0.0;
  for (std::size_t i = losses.size() - tail; i < losses.size(); ++i) {
    sum += losses[i];
  }
  const double tail_mean = sum / static_cast<double>(tail);
  check.ok = tail_mean < losses.front();
  check.detail = "step 0 loss " + std::to_string(losses.front()) +
                 ", mean of last " + std::to_string(tail) + " steps " +
                 std::to_string(tail_mean);
  return check;
}

/// GPT training step: sample_batch -> forward -> cross-entropy -> backward
/// -> Adam step + zero_grad.
class GptTrain : public Workload {
 public:
  GptTrain(const TextData& text, std::uint64_t seed)
      : stream_(text.tokens), rng_(derive_seed(seed, 2)) {
    DeviceSpan span("setup.model");
    Rng init(derive_seed(seed, 3));
    model_ = std::make_unique<nn::GptModel>(gpt_config(), init);
    optimizer_ = std::make_unique<nn::Adam>(model_->parameters(), kAdamLr);
  }

  void run(Window& window, std::int64_t ops) override {
    for (std::int64_t i = 0; i < ops; ++i) {
      const auto t0 = Clock::now();
      float loss = 0.0f;
      {
        DeviceSpan span("gpt_train.step");
        data::TokenStream::Batch batch;
        {
          DeviceSpan span("data.sample_batch");
          batch = stream_.sample_batch(kTrainBatch, kTrainSeq, rng_);
        }
        Tensor logits;
        {
          Phase p("nn.forward", forward_ms);
          logits = model_->forward(batch.inputs);
        }
        nn::LossResult result;
        {
          Phase p("nn.loss", loss_ms);
          result = nn::softmax_cross_entropy(logits, batch.targets);
        }
        {
          Phase p("nn.backward", backward_ms);
          model_->backward(result.grad_logits);
        }
        {
          Phase p("nn.optimizer", optimizer_ms);
          optimizer_->step();
          optimizer_->zero_grad();
        }
        loss = result.loss;
      }
      losses_.push_back(loss);
      window.record(ms_since(t0), kTrainBatch * kTrainSeq, std::isfinite(loss));
    }
  }

  std::vector<Check> checks() override { return {loss_decreases(losses_)}; }

  void report(json::Object& out) const override {
    // Step 20 counts from the first warm-up step of the measured instance.
    if (losses_.size() > 20) out.emplace_back("loss_step20", losses_[20]);
  }

  std::vector<double> forward_ms, loss_ms, backward_ms, optimizer_ms;

 private:
  data::TokenStream stream_;
  Rng rng_;
  std::unique_ptr<nn::GptModel> model_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::vector<float> losses_;
};

/// The same GPT through par::DataParallelTrainer: each rank samples its own
/// micro-batch and runs GptModel::train_step; the trainer all-reduces the
/// gradients, steps Adam and meets at a barrier.
class GptTrainDp : public Workload {
 public:
  GptTrainDp(const TextData& text, std::uint64_t seed)
      : stream_(text.tokens),
        seed_(seed),
        trainer_(kDpWorld, [this](int rank) {
          return replicas_[static_cast<std::size_t>(rank)];
        }) {
    DeviceSpan span("setup.model");
    for (int r = 0; r < kDpWorld; ++r) {
      Rng init(derive_seed(seed, 3));
      auto model = std::make_shared<nn::GptModel>(gpt_config(), init);
      auto optimizer = std::make_shared<nn::Adam>(model->parameters(), kAdamLr);
      replicas_.push_back({model, optimizer});
    }
  }

  std::int64_t chunk() const override { return kDpChunk; }

  /// A step is the time between rank 0's successive callback entries; the
  /// last step of a call ends when DataParallelTrainer::train returns.
  void run(Window& window, std::int64_t ops) override {
    const auto n = static_cast<std::size_t>(ops);
    std::vector<Clock::time_point> entry(n);
    std::vector<std::vector<double>> callback_ms(
        kDpWorld, std::vector<double>(n, 0.0));
    const par::DataParallelResult result = trainer_.train(
        ops, [&](int rank, std::int64_t step,
                 par::DataParallelTrainer::Replica& replica) {
          const auto t0 = Clock::now();
          const auto s = static_cast<std::size_t>(step);
          if (rank == 0) entry[s] = t0;
          DeviceSpan::set_device(rank);
          DeviceSpan span("gpt_train_dp.rank_step");
          data::TokenStream::Batch batch;
          {
            DeviceSpan span("data.sample_batch");
            const auto stream = static_cast<std::uint64_t>(
                (base_step_ + step) * kDpWorld + rank);
            Rng rng(derive_seed(seed_, 100 + stream));
            batch = stream_.sample_batch(kDpBatch, kDpSeq, rng);
          }
          float loss = 0.0f;
          {
            DeviceSpan span("nn.train_step");
            loss = static_cast<nn::GptModel&>(*replica.model)
                       .train_step(batch.inputs, batch.targets);
          }
          callback_ms[static_cast<std::size_t>(rank)][s] = ms_since(t0);
          return loss;
        });
    const auto end = Clock::now();
    for (std::size_t s = 0; s < n; ++s) {
      const auto next = s + 1 < n ? entry[s + 1] : end;
      const double step_ms =
          std::chrono::duration<double, std::milli>(next - entry[s]).count();
      const float loss = result.losses[s];
      losses_.push_back(loss);
      sync_ms.push_back(step_ms - callback_ms[0][s]);
      skew_ms.push_back(std::fabs(callback_ms[0][s] - callback_ms[1][s]));
      window.record(step_ms, kDpWorld * kDpBatch * kDpSeq, std::isfinite(loss));
    }
    base_step_ += ops;
  }

  std::vector<Check> checks() override { return {loss_decreases(losses_)}; }

  std::vector<nn::Parameter*> parameters(int rank) {
    return replicas_[static_cast<std::size_t>(rank)].model->parameters();
  }

  std::vector<double> sync_ms, skew_ms;

 private:
  data::TokenStream stream_;
  std::uint64_t seed_;
  std::vector<par::DataParallelTrainer::Replica> replicas_;
  par::DataParallelTrainer trainer_;
  std::int64_t base_step_ = 0;
  std::vector<float> losses_;
};

/// Greedy GptModel::generate: a kPromptTokens prompt sampled from the corpus,
/// extended by kNewTokens.
class GptDecode : public Workload {
 public:
  GptDecode(const TextData& text, std::uint64_t seed)
      : stream_(text.tokens), rng_(derive_seed(seed, 4)) {
    DeviceSpan span("setup.model");
    Rng init(derive_seed(seed, 3));
    model_ = std::make_unique<nn::GptModel>(gpt_config(), init);
  }

  void run(Window& window, std::int64_t ops) override {
    for (std::int64_t i = 0; i < ops; ++i) {
      std::vector<std::int64_t> prompt;
      {
        DeviceSpan span("data.sample_batch");
        prompt = ids_of(stream_.sample_batch(1, kPromptTokens, rng_).inputs);
      }
      const auto t0 = Clock::now();
      std::vector<std::int64_t> ids;
      {
        DeviceSpan span("gpt_decode.request");
        ids = generate(prompt);
      }
      const double ms = ms_since(t0);
      if (first_ids_.empty()) {
        first_prompt_ = prompt;
        first_ids_ = ids;
      }
      window.record(ms, kNewTokens, valid(prompt, ids));
    }
  }

  std::vector<Check> checks() override {
    Check check{"decode_repeatable", false, "no request ran"};
    if (!first_prompt_.empty()) {
      check.ok = generate(first_prompt_) == first_ids_;
      check.detail = "first request repeated after the window";
    }
    return {check};
  }

  std::vector<std::int64_t> generate(const std::vector<std::int64_t>& prompt) {
    return model_->generate(prompt, kNewTokens, /*temperature=*/0.0f, rng_);
  }

 private:
  /// The prompt is kept, kNewTokens ids follow, every id lies in [0, vocab).
  static bool valid(const std::vector<std::int64_t>& prompt,
                    const std::vector<std::int64_t>& ids) {
    if (ids.size() != prompt.size() + static_cast<std::size_t>(kNewTokens) ||
        !std::equal(prompt.begin(), prompt.end(), ids.begin())) {
      return false;
    }
    return std::all_of(ids.begin(), ids.end(), [](std::int64_t id) {
      return id >= 0 && id < static_cast<std::int64_t>(kGptVocab);
    });
  }

  data::TokenStream stream_;
  Rng rng_;
  std::unique_ptr<nn::GptModel> model_;
  std::vector<std::int64_t> first_prompt_, first_ids_;
};

nn::ResNetConfig resnet_config() {
  nn::ResNetConfig config;
  config.stage_blocks = {1, 1, 1};
  config.stage_widths = {16, 32, 64};
  config.stem_channels = 16;
  config.num_classes = kImageClasses;
  return config;
}

/// ResNet step: SyntheticImageDataset batch -> forward -> cross-entropy ->
/// backward -> SGD-momentum step + zero_grad.
class ResnetTrain : public Workload {
 public:
  explicit ResnetTrain(std::uint64_t seed)
      : dataset_(kImageClasses, 3, kImageSize, kImageSize,
                 derive_seed(seed, 5)),
        rng_(derive_seed(seed, 6)) {
    DeviceSpan span("setup.model");
    Rng init(derive_seed(seed, 3));
    model_ = std::make_unique<nn::ResNet>(resnet_config(), init);
    optimizer_ = std::make_unique<nn::Sgd>(model_->parameters(), kSgdLr);
  }

  void run(Window& window, std::int64_t ops) override {
    for (std::int64_t i = 0; i < ops; ++i) {
      const auto t0 = Clock::now();
      float loss = 0.0f;
      {
        DeviceSpan span("resnet_train.step");
        data::SyntheticImageDataset::Batch batch;
        {
          DeviceSpan span("data.image_batch");
          batch = dataset_.sample_batch(kImageBatch, rng_);
        }
        Tensor logits;
        {
          DeviceSpan span("nn.forward");
          logits = model_->forward(batch.images);
        }
        nn::LossResult result;
        {
          DeviceSpan span("nn.loss");
          result = nn::softmax_cross_entropy(logits, batch.labels);
        }
        {
          DeviceSpan span("nn.backward");
          model_->backward(result.grad_logits);
        }
        {
          DeviceSpan span("nn.optimizer");
          optimizer_->step();
          optimizer_->zero_grad();
        }
        loss = result.loss;
      }
      losses_.push_back(loss);
      window.record(ms_since(t0), kImageBatch, std::isfinite(loss));
    }
  }

  std::vector<Check> checks() override { return {loss_decreases(losses_)}; }

 private:
  data::SyntheticImageDataset dataset_;
  Rng rng_;
  std::unique_ptr<nn::ResNet> model_;
  std::unique_ptr<nn::Sgd> optimizer_;
  std::vector<float> losses_;
};

/// BPE train on an 8000-word corpus, then encode documents whose lengths
/// cover [32, 1024] words log-uniformly: one length per stratum of 64, at the
/// stratum's midpoint, visited in bit-reversed order so that every prefix of
/// the cycle holds an even mix of short and long documents.
class Tokenize : public Workload {
 public:
  explicit Tokenize(std::uint64_t seed) {
    constexpr std::size_t kDocs = std::size_t{1} << kDocBits;
    std::vector<std::size_t> lengths(kDocs);
    std::size_t doc_words = 0;
    for (std::size_t i = 0; i < kDocs; ++i) {
      const double u = (static_cast<double>(i) + 0.5) / kDocs;
      lengths[i] = static_cast<std::size_t>(std::lround(
          kDocMinWords * std::pow(kDocMaxWords / kDocMinWords, u)));
      doc_words += lengths[i];
    }
    DeviceSpan span("setup.text");
    // One text for corpus and documents, so both share the invented
    // vocabulary synthetic_oscar_text draws per call.
    Rng rng(derive_seed(seed, 7));
    const std::vector<std::string> words = str::split_ws(
        data::synthetic_oscar_text(kTokCorpusWords + doc_words, rng));
    {
      DeviceSpan span("data.bpe_train");
      tokenizer_.train(join_words(words, 0, kTokCorpusWords), kTokVocab);
    }
    std::size_t next = kTokCorpusWords;
    for (std::size_t len : lengths) {
      docs_.push_back(join_words(words, next, next + len));
      next += len;
    }
  }

  void run(Window& window, std::int64_t ops) override {
    for (std::int64_t i = 0; i < ops; ++i) {
      const std::string& doc = docs_[bit_reverse(next_doc_++ % docs_.size())];
      const auto t0 = Clock::now();
      std::vector<std::int32_t> ids;
      {
        DeviceSpan span("data.encode");
        ids = tokenizer_.encode(doc);
      }
      const double ms = ms_since(t0);
      bool ok = false;
      {
        DeviceSpan span("data.decode");
        ok = tokenizer_.decode(ids) == doc;
      }
      window.record(ms, static_cast<std::int64_t>(doc.size()), ok);
    }
  }

 private:
  static std::size_t bit_reverse(std::size_t i) {
    std::size_t r = 0;
    for (int b = 0; b < kDocBits; ++b) {
      r |= ((i >> b) & 1u) << (kDocBits - 1 - b);
    }
    return r;
  }

  data::BpeTokenizer tokenizer_;
  std::vector<std::string> docs_;
  std::size_t next_doc_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "gpt_train") {
    return std::make_unique<GptTrain>(make_gpt_text(seed), seed);
  }
  if (name == "gpt_train_dp") {
    return std::make_unique<GptTrainDp>(make_gpt_text(seed), seed);
  }
  if (name == "gpt_decode") {
    return std::make_unique<GptDecode>(make_gpt_text(seed), seed);
  }
  if (name == "resnet_train") return std::make_unique<ResnetTrain>(seed);
  if (name == "tokenize") return std::make_unique<Tokenize>(seed);
  throw Error("unknown workload '" + name + "' (gpt_train, gpt_train_dp, " +
              "gpt_decode, resnet_train, tokenize)");
}

// --- layer probes (traced runs) ---------------------------------------------
//
// The same probes run after every traced window, at fixed shapes: the GPT
// modules at the gpt_train shape, GEMMs at the GPT and decode shapes, convs
// and batchnorms at the resnet_train shape, par at the gpt_train_dp shape.
// README.md maps each to the end-to-end metric it should move.

using Layers = json::Object;

/// GEMM FLOP rate of matmul_nt(A[m,k], W[n,k]) in GFLOP/s.
double gemm_gflops(std::int64_t m, std::int64_t n, std::int64_t k,
                   Rng& rng) {
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor w = Tensor::randn({n, k}, rng);
  const double ms = time_ms(7, [&] { (void)tensor::matmul_nt(a, w); });
  return 2.0 * static_cast<double>(m * n * k) / (ms * 1e6);
}

/// Runs `fn` as a task on a pool worker, where every nested
/// parallel_for_range runs inline: the single-thread version of `fn`.
double on_one_thread(const std::function<double()>& fn) {
  return ThreadPool::global().submit(fn).get();
}

void probe_gpt(std::uint64_t seed, Layers& out, double peak_gflops) {
  const TextData text = make_gpt_text(seed);
  out.emplace_back("data.bpe_train_s", text.bpe_train_s);

  // Data layer.
  {
    data::TokenStream stream(text.tokens);
    Rng rng(derive_seed(seed, 10));
    out.emplace_back("data.sample_batch_us",
                     1e3 * time_ms(200, [&] {
                       (void)stream.sample_batch(kTrainBatch, kTrainSeq, rng);
                     }));
    const std::string short_doc = join_words(text.words, 0, 64);
    const std::string long_doc = join_words(text.words, 0, 512);
    out.emplace_back("data.encode_ms_short", time_ms(9, [&] {
                       (void)text.tokenizer.encode(short_doc);
                     }));
    out.emplace_back("data.encode_ms_long", time_ms(3, [&] {
                       (void)text.tokenizer.encode(long_doc);
                     }));
  }

  // One training step at the gpt_train shape, split by phase.
  GptTrain train(text, seed);
  {
    Window warm, window;
    train.run(warm, 2);
    train.forward_ms.clear();
    train.loss_ms.clear();
    train.backward_ms.clear();
    train.optimizer_ms.clear();
    train.run(window, 5);
    const double step_ms = median(window.op_ms);
    models::GptConfig cost;
    cost.num_layers = static_cast<int>(kGptLayers);
    cost.hidden_size = static_cast<int>(kGptEmbed);
    cost.num_heads = static_cast<int>(kGptHeads);
    cost.seq_length = static_cast<int>(kTrainSeq);
    cost.vocab_size = static_cast<int>(kGptVocab);
    const double model_gflops =
        cost.flops_per_token_train() *
        static_cast<double>(kTrainBatch * kTrainSeq) / (step_ms * 1e6);
    out.emplace_back("nn.forward_ms", median(train.forward_ms));
    out.emplace_back("nn.loss_ms", median(train.loss_ms));
    out.emplace_back("nn.backward_ms", median(train.backward_ms));
    out.emplace_back("nn.optimizer_ms", median(train.optimizer_ms));
    out.emplace_back("tensor.model_gflops", model_gflops);
    out.emplace_back(
        "tensor.mfu",
        model_gflops /
            (peak_gflops * static_cast<double>(ThreadPool::global().size())));
  }

  // Modules at the same shape, standalone.
  {
    const std::int64_t n = kTrainBatch * kTrainSeq;
    const std::int64_t c = kGptEmbed;
    const std::int64_t v = static_cast<std::int64_t>(kGptVocab);
    Rng rng(derive_seed(seed, 11));
    const Tensor x3 = Tensor::randn({kTrainBatch, kTrainSeq, c}, rng);
    const Tensor x2 = x3.reshape({n, c});
    const Tensor gv = Tensor::randn({n, v}, rng, 1e-3f);
    Tensor ids({kTrainBatch, kTrainSeq});
    for (std::int64_t i = 0; i < ids.numel(); ++i) {
      ids[i] = static_cast<float>(rng.uniform_int(0, v - 1));
    }

    nn::CausalSelfAttention attention(c, kGptHeads, rng);
    nn::Linear fc_in(c, 4 * c, rng), fc_out(4 * c, c, rng);
    fc_in.set_gelu();
    nn::LayerNorm norm(c);
    nn::Linear lm_head(c, v, rng, /*bias=*/false);
    nn::Embedding embedding(v, c, rng);

    const double attn_f = time_ms(5, [&] { (void)attention.forward(x3); });
    const double attn_b = time_ms(5, [&] { (void)attention.backward(x3); });
    const double mlp_f =
        time_ms(5, [&] { (void)fc_out.forward(fc_in.forward(x2)); });
    const double mlp_b =
        time_ms(5, [&] { (void)fc_in.backward(fc_out.backward(x2)); });
    const double ln_f = time_ms(5, [&] { (void)norm.forward(x2); });
    const double ln_b = time_ms(5, [&] { (void)norm.backward(x2); });
    const double head_f = time_ms(5, [&] { (void)lm_head.forward(x2); });
    const double head_b = time_ms(5, [&] { (void)lm_head.backward(gv); });
    const double emb_f = time_ms(5, [&] { (void)embedding.forward(ids); });
    const auto layers = static_cast<double>(kGptLayers);
    out.emplace_back("nn.attention_fwd_ms", attn_f);
    out.emplace_back("nn.attention_bwd_ms", attn_b);
    out.emplace_back("nn.mlp_fwd_ms", mlp_f);
    out.emplace_back("nn.mlp_bwd_ms", mlp_b);
    out.emplace_back("nn.layernorm_fwd_ms", ln_f);
    out.emplace_back("nn.layernorm_bwd_ms", ln_b);
    out.emplace_back("nn.lm_head_fwd_ms", head_f);
    out.emplace_back("nn.lm_head_bwd_ms", head_b);
    out.emplace_back("nn.embedding_fwd_ms", emb_f);
    // Per block: attention, MLP and two layer norms; plus the final norm.
    out.emplace_back("nn.unattributed_fwd_ms",
                     median(train.forward_ms) -
                         (emb_f + layers * (attn_f + mlp_f + 2 * ln_f) + ln_f +
                          head_f));
    out.emplace_back("nn.unattributed_bwd_ms",
                     median(train.backward_ms) -
                         (layers * (attn_b + mlp_b + 2 * ln_b) + ln_b +
                          head_b));
  }

  // Decode: ms per generated token.
  {
    GptDecode decode(text, seed);
    Window warm, window;
    decode.run(warm, 1);
    decode.run(window, 3);
    out.emplace_back("nn.generate_token_ms",
                     median(window.op_ms) / static_cast<double>(kNewTokens));
  }

  // Data parallel at the gpt_train_dp shape.
  {
    GptTrainDp dp(text, seed);
    auto& registry = telemetry::Registry::global();
    auto& calls = registry.counter("par/allreduce_calls");
    auto& bytes = registry.counter("par/allreduce_bytes");
    auto& barriers = registry.counter("par/barriers");
    Window warm, window;
    dp.run(warm, 2);
    dp.sync_ms.clear();
    dp.skew_ms.clear();
    const std::int64_t calls0 = calls.value(), bytes0 = bytes.value(),
                       barriers0 = barriers.value();
    constexpr std::int64_t kSteps = 2 * kDpChunk;
    dp.run(window, kDpChunk);
    dp.run(window, kDpChunk);
    const auto per_step = [&](std::int64_t delta) {
      return static_cast<double>(delta) / static_cast<double>(kSteps);
    };
    out.emplace_back("par.allreduce_mb_per_step",
                     per_step(bytes.value() - bytes0) / 1e6);
    out.emplace_back("par.allreduce_calls_per_step",
                     per_step(calls.value() - calls0));
    out.emplace_back("par.barriers_per_step",
                     per_step(barriers.value() - barriers0));
    out.emplace_back("par.sync_ms", median(dp.sync_ms));
    out.emplace_back("par.rank_skew_ms", median(dp.skew_ms));

    std::vector<double> allreduce_ms;
    par::DeviceGroup group(kDpWorld);
    group.run([&](par::Communicator& comm) {
      const auto params = dp.parameters(comm.rank());
      for (int r = 0; r < 6; ++r) {
        comm.barrier();
        const auto t0 = Clock::now();
        par::all_reduce_gradients(comm, params);
        if (comm.rank() == 0 && r > 0) allreduce_ms.push_back(ms_since(t0));
      }
    });
    out.emplace_back("par.allreduce_ms", median(allreduce_ms));
  }
}

void probe_resnet(std::uint64_t seed, Layers& out) {
  Rng rng(derive_seed(seed, 12));
  const nn::ResNetConfig config = resnet_config();
  // The convolutions of the ResNet's stem and blocks, in the order
  // nn::ResNet builds them, each followed by its batchnorm.
  struct ConvLayer {
    std::unique_ptr<nn::Conv2d> conv;
    std::unique_ptr<nn::BatchNorm2d> norm;
    Tensor input, grad;
  };
  std::vector<ConvLayer> layers;
  auto add = [&](std::int64_t in, std::int64_t out_ch, std::int64_t kernel,
                 std::int64_t stride, std::int64_t size) {
    ConvLayer layer;
    layer.conv = std::make_unique<nn::Conv2d>(in, out_ch, kernel, stride,
                                              kernel / 2, rng);
    layer.norm = std::make_unique<nn::BatchNorm2d>(out_ch);
    layer.input = Tensor::randn({kImageBatch, in, size, size}, rng);
    layer.grad = Tensor::randn(
        {kImageBatch, out_ch, size / stride, size / stride}, rng);
    layers.push_back(std::move(layer));
  };
  std::int64_t size = kImageSize, channels = config.stem_channels;
  add(config.in_channels, channels, 3, 1, size);
  for (std::size_t s = 0; s < config.stage_blocks.size(); ++s) {
    for (std::int64_t b = 0; b < config.stage_blocks[s]; ++b) {
      const std::int64_t width = config.stage_widths[s];
      const std::int64_t stride = (b == 0 && s > 0) ? 2 : 1;
      add(channels, width, 3, stride, size);
      add(width, width, 3, 1, size / stride);
      if (stride != 1 || channels != width) {
        add(channels, width, 1, stride, size);
      }
      channels = width;
      size /= stride;
    }
  }
  out.emplace_back("nn.conv_fwd_ms", time_ms(5, [&] {
                     for (auto& l : layers) (void)l.conv->forward(l.input);
                   }));
  out.emplace_back("nn.conv_bwd_ms", time_ms(5, [&] {
                     for (auto& l : layers) (void)l.conv->backward(l.grad);
                   }));
  out.emplace_back("nn.batchnorm_fwd_ms", time_ms(5, [&] {
                     for (auto& l : layers) (void)l.norm->forward(l.grad);
                   }));
  out.emplace_back("nn.batchnorm_bwd_ms", time_ms(5, [&] {
                     for (auto& l : layers) (void)l.norm->backward(l.grad);
                   }));

  data::SyntheticImageDataset dataset(kImageClasses, 3, kImageSize, kImageSize,
                                      derive_seed(seed, 5));
  out.emplace_back("data.image_batch_ms", time_ms(5, [&] {
                     (void)dataset.sample_batch(kImageBatch, rng);
                   }));
}

/// Returns tensor.peak_gflops, which tensor.mfu divides by.
double probe_tensor_and_pool(std::uint64_t seed, Layers& out) {
  Rng rng(derive_seed(seed, 13));
  double peak_gflops = 0.0;
  const std::int64_t n = kTrainBatch * kTrainSeq, c = kGptEmbed;
  const auto v = static_cast<std::int64_t>(kGptVocab);
  const std::int64_t decode_rows = kPromptTokens + kNewTokens;
  out.emplace_back("tensor.gemm_gflops.qkv", gemm_gflops(n, 3 * c, c, rng));
  out.emplace_back("tensor.gemm_gflops.proj", gemm_gflops(n, c, c, rng));
  out.emplace_back("tensor.gemm_gflops.fc_in", gemm_gflops(n, 4 * c, c, rng));
  out.emplace_back("tensor.gemm_gflops.fc_out", gemm_gflops(n, c, 4 * c, rng));
  out.emplace_back("tensor.gemm_gflops.lm_head", gemm_gflops(n, v, c, rng));
  out.emplace_back("tensor.gemm_gflops.decode_lm_head",
                   gemm_gflops(decode_rows, v, c, rng));

  {
    const Tensor a = Tensor::randn({256, 256}, rng);
    const Tensor b = Tensor::randn({256, 256}, rng);
    const double ms = on_one_thread([&] {
      return time_ms(7, [&] { (void)tensor::matmul(a, b); });
    });
    peak_gflops = 2.0 * 256.0 * 256.0 * 256.0 / (ms * 1e6);
    out.emplace_back("tensor.peak_gflops", peak_gflops);
  }

  // The probe set for thread scaling: the GPT GEMMs and attention forward
  // at the gpt_train shape, on the pool and on one thread.
  {
    const Tensor x = Tensor::randn({n, c}, rng);
    const Tensor x3 = Tensor::randn({kTrainBatch, kTrainSeq, c}, rng);
    const Tensor w_qkv = Tensor::randn({3 * c, c}, rng);
    const Tensor w_in = Tensor::randn({4 * c, c}, rng);
    const Tensor w_out = Tensor::randn({c, 4 * c}, rng);
    const Tensor h = Tensor::randn({n, 4 * c}, rng);
    const Tensor w_head = Tensor::randn({v, c}, rng);
    nn::CausalSelfAttention attention(c, kGptHeads, rng);
    const auto probe_set = [&] {
      return time_ms(3, [&] {
        (void)tensor::matmul_nt(x, w_qkv);
        (void)tensor::matmul_nt(x, w_in);
        (void)tensor::matmul_nt(h, w_out);
        (void)tensor::matmul_nt(x, w_head);
        (void)attention.forward(x3);
      });
    };
    const double pool_ms = probe_set();
    const double one_ms = on_one_thread(probe_set);
    out.emplace_back("util.pool_speedup", one_ms / pool_ms);
  }

  {
    ThreadPool& pool = ThreadPool::global();
    const std::size_t chunks = 4 * pool.size();
    constexpr int kCalls = 50;
    const double ms = time_ms(20, [&] {
      for (int i = 0; i < kCalls; ++i) {
        pool.parallel_for_range(0, chunks, 1, [](std::size_t, std::size_t) {});
      }
    });
    out.emplace_back("util.pool_dispatch_us", 1e3 * ms / kCalls);
  }
  return peak_gflops;
}

/// Share of the traced window spent recording spans: the cost of one span,
/// measured on a private tracer, times the spans the window recorded.
double trace_overhead_frac(std::size_t window_spans, double window_s) {
  telemetry::Tracer scratch;
  scratch.set_enabled(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) DeviceSpan span("probe", scratch);
  const double per_span_s = ms_since(t0) / 1e3 / kSpans;
  return per_span_s * static_cast<double>(window_spans) / window_s;
}

json::Array to_json(const std::vector<double>& values) {
  return json::Array(values.begin(), values.end());
}

int run(int argc, char** argv) {
  ArgParser parser("caraml_e2e",
                   "one end-to-end workload of the CPU training stack");
  parser.add_option("workload",
                    "gpt_train|gpt_train_dp|gpt_decode|resnet_train|tokenize");
  parser.add_option("seed", "input seed", std::string("1"));
  parser.add_option("seconds", "measured window length", std::string("10"));
  parser.add_option("setups", "set-ups made; the last one is measured",
                    std::string("3"));
  parser.add_option("trace-out", "trace set-up and window into this Chrome "
                    "trace, then run the layer probes ('' = untraced)",
                    std::string(""));
  if (!parser.parse(argc, argv)) return 0;

  const std::string name = parser.get("workload");
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const double seconds = parser.get_double("seconds");
  const long long setups = parser.get_int("setups");
  const std::string trace_out = parser.get("trace-out");
  CARAML_CHECK_MSG(seconds > 0.0, "--seconds must be positive");
  CARAML_CHECK_MSG(setups >= 1, "--setups must be at least 1");

  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.set_enabled(!trace_out.empty());
  const std::size_t threads = ThreadPool::global().size();

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::int64_t warmup_failed = 0;
  for (long long i = 0; i < setups; ++i) {
    workload.reset();
    const auto t0 = Clock::now();
    {
      DeviceSpan span("setup");
      workload = make_workload(name, seed);
      Window warm;
      workload->run(warm, kWarmupOps);
      warmup_failed += warm.failed;
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  Window window;
  const std::size_t spans_before = tracer.num_events();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  while (ms_since(t0) < seconds * 1e3) workload->run(window, workload->chunk());
  const double window_s = ms_since(t0) / 1e3;
  const double cpu_s = process_cpu_seconds() - cpu0;
  const std::size_t window_spans = tracer.num_events() - spans_before;

  json::Array checks;
  for (const Check& check : workload->checks()) {
    checks.push_back(json::Object{{"name", check.name},
                                  {"ok", check.ok},
                                  {"detail", check.detail}});
  }

  json::Object result{
      {"workload", name},
      {"seed", static_cast<std::int64_t>(seed)},
      {"threads", static_cast<std::int64_t>(threads)},
      {"setup_s", to_json(setup_s)},
      {"window_s", window_s},
      {"items", window.items},
      {"op_ms", to_json(window.op_ms)},
      {"failed", window.failed + warmup_failed},
      {"checks", checks},
      {"cpu_busy_frac",
       cpu_s / (window_s * static_cast<double>(available_cpus()))}};
  workload->report(result);
  workload.reset();
  result.emplace_back("peak_rss_mb", peak_rss_mb());

  if (!trace_out.empty()) {
    tracer.set_enabled(false);
    tracer.write_chrome_trace(trace_out);
    Layers layers;
    layers.emplace_back("telemetry.trace_overhead_frac",
                        trace_overhead_frac(window_spans, window_s));
    probe_gpt(seed, layers, probe_tensor_and_pool(seed, layers));
    probe_resnet(seed, layers);
    result.emplace_back("layers", layers);
  }
  std::cout << json::dump(result) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "caraml_e2e: " << e.what() << "\n";
    return 1;
  }
}
