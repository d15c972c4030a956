#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/error.hpp"

namespace caraml {

namespace {
// Set while a thread is executing inside ThreadPool::worker_loop. Used to run
// nested parallel dispatch inline: a worker that blocks waiting on sub-tasks
// it submitted to its own (possibly fully-blocked) pool can deadlock.
thread_local bool t_on_worker_thread = false;
}  // namespace

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(2, hw == 0 ? 2 : hw);
}

std::size_t ThreadPool::parse_env_threads(const char* text) {
  if (text == nullptr) return default_threads();
  const std::string value(text);
  constexpr std::size_t kMaxThreads = 1024;
  const auto fail = [&value]() {
    throw Error("CARAML_NUM_THREADS: invalid value '" + value +
                "' — expected an integer in [1, 1024] "
                "(unset it to use hardware concurrency)");
  };
  if (value.empty() || value.size() > 5) fail();
  for (const char ch : value) {
    if (ch < '0' || ch > '9') fail();
  }
  const unsigned long parsed = std::stoul(value);
  if (parsed < 1 || parsed > kMaxThreads) fail();
  return static_cast<std::size_t>(parsed);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  CARAML_CHECK_MSG(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::add_worker() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw std::runtime_error("ThreadPool: add_worker after stop");
  workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker_thread; }

void ThreadPool::worker_loop() {
  t_on_worker_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for_range(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  grain = std::max<std::size_t>(1, grain);
  // Up to 4 chunks per worker for load balancing, but never chunks smaller
  // than the grain.
  const std::size_t max_chunks =
      std::min(total, std::max<std::size_t>(1, size() * 4));
  std::size_t num_chunks = std::min(max_chunks, (total + grain - 1) / grain);
  if (num_chunks <= 1 || t_on_worker_thread) {
    fn(begin, end);
    return;
  }
  // Chunk size rounded up to a multiple of the grain so every boundary is
  // grain-aligned; the last chunk absorbs the remainder (and is therefore the
  // only one whose size may exceed — but never undershoot — the grain).
  const std::size_t raw_chunk = (total + num_chunks - 1) / num_chunks;
  const std::size_t chunk = ((raw_chunk + grain - 1) / grain) * grain;
  num_chunks = std::max<std::size_t>(1, total / chunk);
  if (num_chunks <= 1) {
    fn(begin, end);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = c + 1 == num_chunks ? end : lo + chunk;
    futures.push_back(submit([lo, hi, &fn] { fn(lo, hi); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(parse_env_threads(std::getenv("CARAML_NUM_THREADS")));
  return pool;
}

void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t)>& fn) {
  ThreadPool::global().parallel_for_range(begin, end, grain, fn);
}

}  // namespace caraml
