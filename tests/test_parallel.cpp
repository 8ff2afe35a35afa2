// Unit tests for the shared-memory runtime: ThreadPool, TaskGraph, and the
// progress Monitor with its StallLatch rule.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/parallel/monitor.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"

namespace {

using namespace rshc::parallel;
using namespace std::chrono_literals;

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("bang"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 200);
}

class ParallelForSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, long long>> {};

TEST_P(ParallelForSweep, CoversEveryIndexExactlyOnce) {
  const auto [threads, n] = GetParam();
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(0, n, [&](long long i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (long long i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelForSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1LL, 7LL, 64LL, 1000LL)));

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](long long) { ++calls; });
  pool.parallel_for(5, 3, [&](long long) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForRespectsGrain) {
  ThreadPool pool(2);
  std::atomic<long long> sum{0};
  pool.parallel_for(0, 100, [&](long long i) { sum.fetch_add(i); }, 16);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A 1-thread pool is the worst case: the outer loop body itself calls
  // parallel_for from the only worker thread.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](long long) {
    pool.parallel_for(0, 8, [&](long long) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](long long i) {
                                   if (i == 37) {
                                     throw std::runtime_error("at 37");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool(0), rshc::Error);
}

TEST(TaskGraph, RunsAllNodes) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    g.add([&count] { count.fetch_add(1); });
  }
  g.run(pool);
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(g.size(), 10u);
}

TEST(TaskGraph, RespectsChainOrder) {
  ThreadPool pool(4);
  TaskGraph g;
  std::vector<int> order;
  std::mutex m;
  auto note = [&](int id) {
    std::scoped_lock lock(m);
    order.push_back(id);
  };
  const auto a = g.add([&] { note(0); });
  const auto b = g.add([&] { note(1); }, {a});
  g.add([&] { note(2); }, {b});
  g.run(pool);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskGraph, DiamondDependency) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<int> top_done{0};
  std::atomic<int> mids_done{0};
  std::atomic<bool> bottom_saw_both{false};
  const auto top = g.add([&] { top_done.store(1); });
  const auto l = g.add(
      [&] {
        EXPECT_EQ(top_done.load(), 1);
        mids_done.fetch_add(1);
      },
      {top});
  const auto r = g.add(
      [&] {
        EXPECT_EQ(top_done.load(), 1);
        mids_done.fetch_add(1);
      },
      {top});
  g.add([&] { bottom_saw_both.store(mids_done.load() == 2); }, {l, r});
  g.run(pool);
  EXPECT_TRUE(bottom_saw_both.load());
}

TEST(TaskGraph, ReRunnable) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<int> count{0};
  const auto a = g.add([&] { count.fetch_add(1); });
  g.add([&] { count.fetch_add(10); }, {a});
  g.run(pool);
  g.run(pool);
  g.run(pool);
  EXPECT_EQ(count.load(), 33);
}

TEST(TaskGraph, ForwardDependenciesRejected) {
  TaskGraph g;
  const auto a = g.add([] {});
  (void)a;
  // Depending on a node that does not exist yet (id >= current) must throw.
  EXPECT_THROW(g.add([] {}, {TaskGraph::NodeId{5}}), rshc::Error);
}

TEST(TaskGraph, ExceptionIsRethrownAfterDrain) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<int> ran{0};
  const auto a = g.add([] { throw std::runtime_error("node failed"); });
  g.add([&] { ran.fetch_add(1); }, {a});
  EXPECT_THROW(g.run(pool), std::runtime_error);
  // Downstream node still ran (failure policy documented in the header).
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGraph, EmptyGraphRuns) {
  ThreadPool pool(1);
  TaskGraph g;
  EXPECT_NO_THROW(g.run(pool));
}

TEST(TaskGraph, WideFanOutAndIn) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<long long> sum{0};
  const auto root = g.add([] {});
  std::vector<TaskGraph::NodeId> mids;
  for (long long i = 1; i <= 64; ++i) {
    mids.push_back(g.add([&sum, i] { sum.fetch_add(i); }, {root}));
  }
  std::atomic<long long> total{-1};
  g.add([&] { total.store(sum.load()); },
        std::span<const TaskGraph::NodeId>(mids));
  g.run(pool);
  EXPECT_EQ(total.load(), 64 * 65 / 2);
}

TEST(TaskGraph, RunInlineFollowsCreationOrderOnCallingThread) {
  TaskGraph g;
  std::mutex m;  // the pool run below fires nodes 1 and 2 concurrently
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  auto node = [&](int id) {
    return [&m, &order, &threads, id] {
      const std::lock_guard<std::mutex> lock(m);
      order.push_back(id);
      threads.push_back(std::this_thread::get_id());
    };
  };
  // A diamond plus an independent root created last: creation order, not
  // readiness, decides the inline schedule.
  const auto top = g.add(node(0));
  const auto l = g.add(node(1), {top});
  const auto r = g.add(node(2), {top});
  g.add(node(3), {l, r});
  g.add(node(4));

  const long long pending0 = introspect::pending_graph_nodes();
  const long long finished0 = introspect::graph_nodes_finished();
  g.run_inline();
  EXPECT_EQ(introspect::pending_graph_nodes(), pending0);
  EXPECT_EQ(introspect::graph_nodes_finished() - finished0, 5);
  // Re-runnable, also after a pool run of the same graph.
  ThreadPool pool(2);
  g.run(pool);
  order.clear();
  threads.clear();
  g.run_inline();
  EXPECT_EQ(introspect::pending_graph_nodes(), pending0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const auto& t : threads) EXPECT_EQ(t, std::this_thread::get_id());
}

TEST(TaskGraph, RunInlineStopsAtFirstExceptionAndRethrows) {
  TaskGraph g;
  std::vector<int> ran;
  const auto a = g.add([&] { ran.push_back(0); });
  const auto b = g.add([&] {
    ran.push_back(1);
    throw std::runtime_error("node failed");
  });
  g.add([&] { ran.push_back(2); }, {a});  // independent of the failure
  g.add([&] { ran.push_back(3); }, {b});
  g.add([&] { throw std::logic_error("never reached"); });

  const long long pending0 = introspect::pending_graph_nodes();
  EXPECT_THROW(g.run_inline(), std::runtime_error);
  // Unlike run(pool), no node after the failing one fires.
  EXPECT_EQ(ran, (std::vector<int>{0, 1}));
  EXPECT_EQ(introspect::pending_graph_nodes(), pending0);
  ran.clear();
  EXPECT_THROW(g.run_inline(), std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{0, 1}));
}

// --- Monitor / StallLatch ----------------------------------------------

/// Registers a probe on the process monitor for one test scope. Declare it
/// after the state its probe touches, so the probe is gone first.
class ScopedProbe {
 public:
  ScopedProbe(Monitor::Clock::duration period, Monitor::Probe fn)
      : id_(Monitor::global().add(period, std::move(fn))) {}
  ~ScopedProbe() { Monitor::global().remove(id_); }
  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;
  [[nodiscard]] Monitor::ProbeId id() const { return id_; }

 private:
  Monitor::ProbeId id_;
};

/// Poll `done` every millisecond for up to five seconds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Monitor, TwoProbesRunOnTheSameBackgroundThread) {
  std::mutex m;
  std::vector<std::thread::id> seen_a;
  std::vector<std::thread::id> seen_b;
  ScopedProbe a(1ms, [&] {
    const std::lock_guard<std::mutex> lock(m);
    seen_a.push_back(std::this_thread::get_id());
  });
  ScopedProbe b(2ms, [&] {
    const std::lock_guard<std::mutex> lock(m);
    seen_b.push_back(std::this_thread::get_id());
  });
  EXPECT_NE(a.id(), b.id());
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(m);
    return seen_a.size() >= 3 && seen_b.size() >= 3;
  }));
  const std::lock_guard<std::mutex> lock(m);
  const std::thread::id probe_thread = seen_a.front();
  EXPECT_NE(probe_thread, std::this_thread::get_id());
  for (const auto& id : seen_a) EXPECT_EQ(id, probe_thread);
  for (const auto& id : seen_b) EXPECT_EQ(id, probe_thread);
}

TEST(Monitor, RemoveWaitsForInFlightProbeWhichNeverRunsAgain) {
  std::atomic<int> runs{0};
  std::atomic<bool> release{false};
  std::atomic<bool> returned{false};
  std::atomic<bool> removed{false};
  ScopedProbe probe(1ms, [&] {
    runs.fetch_add(1);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    returned.store(true);
  });
  ASSERT_TRUE(eventually([&] { return runs.load() == 1; }));
  std::thread remover([&] {
    Monitor::global().remove(probe.id());
    removed.store(true);
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(removed.load()) << "remove() returned mid-probe";
  release.store(true);
  remover.join();
  EXPECT_TRUE(returned.load());
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(runs.load(), 1);
  // ~ScopedProbe removes the id again: an unknown id is a no-op.
}

TEST(Monitor, ThrowingProbeDoesNotStopTheOthers) {
  std::atomic<int> throws{0};
  std::atomic<int> ticks{0};
  ScopedProbe failing(1ms, [&] {
    throws.fetch_add(1);
    throw std::runtime_error("probe failed");
  });
  ScopedProbe healthy(1ms, [&] { ticks.fetch_add(1); });
  EXPECT_TRUE(
      eventually([&] { return throws.load() >= 3 && ticks.load() >= 3; }));
}

TEST(StallLatch, FiresOncePerBusyEpisodeAndReArmsOnProgressAndIdle) {
  StallLatch latch(100ms);
  const auto t0 = Monitor::Clock::now();
  // A busy episode with no progress fires once, at the timeout.
  EXPECT_FALSE(latch.observe(7, true, t0).has_value());
  EXPECT_FALSE(latch.observe(7, true, t0 + 99ms).has_value());
  const auto quiet = latch.observe(7, true, t0 + 100ms);
  ASSERT_TRUE(quiet.has_value());
  EXPECT_EQ(*quiet, 100ms);
  EXPECT_FALSE(latch.observe(7, true, t0 + 1s).has_value());
  EXPECT_FALSE(latch.observe(7, true, t0 + 5s).has_value());

  // Progress re-arms: the quiet time restarts at the change.
  EXPECT_FALSE(latch.observe(8, true, t0 + 6s).has_value());
  EXPECT_FALSE(latch.observe(8, true, t0 + 6s + 99ms).has_value());
  EXPECT_TRUE(latch.observe(8, true, t0 + 6s + 150ms).has_value());

  // Idle never fires and re-arms: the next busy observation starts a new
  // episode even though the progress counter has not moved.
  EXPECT_FALSE(latch.observe(8, false, t0 + 7s).has_value());
  EXPECT_FALSE(latch.observe(8, false, t0 + 60s).has_value());
  EXPECT_FALSE(latch.observe(8, true, t0 + 61s).has_value());
  EXPECT_FALSE(latch.observe(8, true, t0 + 61s + 99ms).has_value());
  EXPECT_TRUE(latch.observe(8, true, t0 + 61s + 100ms).has_value());
}

}  // namespace
