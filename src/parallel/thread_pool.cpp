#include "rshc/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "rshc/common/error.hpp"
#include "rshc/obs/obs.hpp"

namespace rshc::parallel {

ThreadPool::ThreadPool(unsigned num_threads) {
  RSHC_REQUIRE(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& st) { worker_loop(st); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  for (auto& w : workers_) w.request_stop();
  cv_.notify_all();
  // jthread destructor joins.
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    LockGuard lock(mutex_);
    RSHC_REQUIRE(!stopping_, "enqueue on stopped thread pool");
    queue_.push_back(std::move(fn));
    RSHC_OBS_GAUGE("pool.queue_depth", static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

std::size_t ThreadPool::queued() const {
  LockGuard lock(mutex_);
  return queue_.size();
}

void ThreadPool::worker_loop(const std::stop_token& st) {
  for (;;) {
    std::function<void()> task;
    {
      LockGuard lock(mutex_);
      cv_.wait(lock.native_lock(), st, [this] {
        mutex_.assert_held();  // predicate runs under the wait's lock
        return !queue_.empty() || stopping_;
      });
      if (queue_.empty()) return;  // stop requested and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    introspect::pool_busy_counter().fetch_add(1, std::memory_order_relaxed);
    {
      RSHC_TRACE_SCOPE("pool.task", "pool", -1);
      task();
    }
    introspect::pool_busy_counter().fetch_sub(1, std::memory_order_relaxed);
    introspect::pool_finished_counter().fetch_add(1,
                                                  std::memory_order_relaxed);
    RSHC_OBS_COUNT("pool.tasks", 1);
  }
}

void ThreadPool::parallel_for(long long begin, long long end,
                              const std::function<void(long long)>& fn,
                              long long grain) {
  if (begin >= end) return;
  grain = std::max<long long>(1, grain);
  const long long n = end - begin;
  const long long nchunks = (n + grain - 1) / grain;
  if (nchunks <= 1) {
    for (long long i = begin; i < end; ++i) fn(i);
    return;
  }

  // Self-scheduling: helpers and the caller all claim chunks from a shared
  // atomic cursor. The caller participates, so every chunk is either done or
  // being executed by a live thread — parallel_for is therefore safe to call
  // from inside a pool worker (no queued-but-unstarted work is awaited).
  struct Shared {
    // relaxed: chunk cursor — claims need atomicity, not ordering (the
    // claimed range is only touched by the claiming thread).
    std::atomic<long long> next;
    // acq_rel on the final add: the finisher that reaches `total` fulfils
    // the promise and must observe every chunk's writes.
    std::atomic<long long> completed{0};
    long long total;
    std::promise<void> done;
    Mutex error_mutex;
    std::exception_ptr error RSHC_GUARDED_BY(error_mutex);
  };
  auto shared = std::make_shared<Shared>();
  shared->next.store(begin, std::memory_order_relaxed);
  shared->total = nchunks;

  auto drive = [shared, end, grain, &fn] {
    long long finished = 0;
    for (;;) {
      const long long lo =
          shared->next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const long long hi = std::min(end, lo + grain);
      try {
        for (long long i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        LockGuard lock(shared->error_mutex);
        if (!shared->error) shared->error = std::current_exception();
      }
      ++finished;
    }
    if (finished > 0 &&
        shared->completed.fetch_add(finished, std::memory_order_acq_rel) +
                finished ==
            shared->total) {
      shared->done.set_value();
    }
  };

  const long long helpers =
      std::min<long long>(nchunks - 1, static_cast<long long>(size()));
  for (long long h = 0; h < helpers; ++h) enqueue(drive);
  drive();
  shared->done.get_future().wait();
  // All chunks have completed; take the lock anyway so the guarded read
  // satisfies the capability contract (cold path, one lock per call).
  LockGuard lock(shared->error_mutex);
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace rshc::parallel
