// Fixed-size thread pool with futures and a blocking parallel-for primitive.
//
// The pool is the execution substrate for (a) the CPU training stack's
// parallel tensor kernels and (b) the thread-backed "devices" in caraml::par.
//
// Hot compute paths use `parallel_for_range`, which hands each worker a
// contiguous [lo, hi) chunk sized by a caller-provided grain: one callable
// invocation per chunk instead of one `std::function` dispatch per index.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace caraml {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>=1). Default: hardware
  /// concurrency, at least 2.
  explicit ThreadPool(std::size_t num_threads = default_threads());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const;

  /// Grow the pool by one worker. Used to restore capacity after a timed-out
  /// task permanently occupies its worker (jube's detach-on-timeout
  /// semantics): the hung task keeps its thread, the pool keeps its
  /// throughput. Throws after the pool has begun stopping.
  void add_worker();

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run `fn(lo, hi)` over disjoint chunks covering [begin, end), each chunk
  /// at least `grain` indices (a grain of 0 counts as 1); blocks until all
  /// chunks completed. Chunk boundaries are grain-aligned: every chunk but
  /// the last is an exact multiple of `grain` long and starts at
  /// `begin + c * chunk`; the last chunk absorbs the remainder. The only
  /// chunk ever smaller than `grain` is a whole range shorter than one grain
  /// (which runs inline). The callable is invoked once per chunk, so per-index
  /// dispatch cost is amortized away — this is the API hot kernels use.
  /// Degenerate cases (empty range, single chunk, pool of one) and calls
  /// made from inside a pool worker run inline on the calling thread; the
  /// latter makes nested data-parallelism deadlock-free. Exceptions from
  /// workers are rethrown (first one wins).
  void parallel_for_range(std::size_t begin, std::size_t end,
                          std::size_t grain,
                          const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  static bool on_worker_thread();

  /// Shared process-wide pool (lazily constructed). Its size honours
  /// CARAML_NUM_THREADS when set (see parse_env_threads), else
  /// default_threads().
  static ThreadPool& global();

  static std::size_t default_threads();

  /// Validate a CARAML_NUM_THREADS value: an integer in [1, 1024]. Throws
  /// caraml::Error with a lint-style message on garbage (empty, non-numeric,
  /// out of range). `text == nullptr` (variable unset) yields
  /// default_threads().
  static std::size_t parse_env_threads(const char* text);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Convenience: parallel_for_range on the global pool.
void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace caraml
