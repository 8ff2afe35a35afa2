#pragma once
// Fixed-size worker pool with a central task queue. This is the
// shared-memory substrate for block-parallel stepping and the futurized
// dataflow scheduler (DESIGN.md system #2). Follows CP.24/CP.25: tasks and
// futures rather than raw detached threads; workers are std::jthread and
// join on destruction.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "rshc/common/mutex.hpp"

namespace rshc::parallel {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers (>=1). Workers sleep when idle.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Fire-and-forget variant used by the dataflow engine (result delivery is
  /// handled by the caller's promise).
  void enqueue(std::function<void()> fn) RSHC_EXCLUDES(mutex_);

  /// Run `fn(i)` for i in [begin, end) across the pool, blocking until done.
  /// `grain` is the minimum chunk size per task. Safe to call from a worker
  /// thread: the caller participates by draining its own chunk inline.
  void parallel_for(long long begin, long long end,
                    const std::function<void(long long)>& fn,
                    long long grain = 1);

  /// Number of tasks currently queued (diagnostic).
  [[nodiscard]] std::size_t queued() const RSHC_EXCLUDES(mutex_);

 private:
  void worker_loop(const std::stop_token& st) RSHC_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ RSHC_GUARDED_BY(mutex_);
  // Only the constructor mutates workers_; size() reads it lock-free after
  // construction completes (publication via the constructing thread).
  std::vector<std::jthread> workers_;
  bool stopping_ RSHC_GUARDED_BY(mutex_) = false;
};

/// Worker-state introspection for the stall watchdog's per-thread dump
/// (obs::telemetry), summed over every pool in the process. Deliberately
/// obs-free so the hooks exist in all build configurations.
namespace introspect {

// relaxed: watchdog diagnostics only; readers tolerate stale values.
inline std::atomic<long long>& pool_busy_counter() noexcept {
  static std::atomic<long long> busy{0};
  return busy;
}

// relaxed: monotonic progress ticker for the watchdog; no ordering needed.
inline std::atomic<long long>& pool_finished_counter() noexcept {
  static std::atomic<long long> finished{0};
  return finished;
}

/// Workers currently executing a task (as opposed to sleeping on the CV).
[[nodiscard]] inline long long pool_busy_workers() noexcept {
  return pool_busy_counter().load(std::memory_order_relaxed);
}

/// Monotonic count of pool tasks that ran to completion.
[[nodiscard]] inline long long pool_tasks_finished() noexcept {
  return pool_finished_counter().load(std::memory_order_relaxed);
}

}  // namespace introspect

}  // namespace rshc::parallel
