// Concurrency stress: drives the thread pool, task graph, dataflow-mode
// solver, and the message-passing halo exchange with thread counts well
// above the host's core count. The assertions are deliberately simple
// (correct sums, bitwise equality with the serial path) — the real payload
// is the *interleavings*: this binary is the TSan lane's primary exercise
// of the machinery named in the lane's charter (thread_pool, task_graph,
// dataflow stepping, halo exchange).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "rshc/comm/communicator.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace {

using namespace rshc;

constexpr unsigned kThreads = 16;  // deliberately oversubscribed

TEST(ParallelStress, OversubscribedParallelForCoversEveryIndex) {
  parallel::ThreadPool pool(kThreads);
  constexpr long long kN = 20000;
  std::vector<int> hits(kN, 0);
  for (int rep = 0; rep < 4; ++rep) {
    std::fill(hits.begin(), hits.end(), 0);
    pool.parallel_for(0, kN, [&](long long i) { hits[i]++; }, 7);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0LL), kN);
  }
}

TEST(ParallelStress, NestedParallelForFromPoolWorkers) {
  // parallel_for is documented safe to call from inside a worker (the
  // caller self-schedules); nest it to stress that path under contention.
  parallel::ThreadPool pool(kThreads);
  std::atomic<long long> total{0};  // seq_cst test counter
  pool.parallel_for(0, 32, [&](long long) {
    pool.parallel_for(0, 100, [&](long long) { total++; }, 9);
  });
  EXPECT_EQ(total.load(), 32 * 100);
}

TEST(ParallelStress, WideLayeredGraphFiresEveryNodeOncePerRun) {
  parallel::ThreadPool pool(kThreads);
  constexpr int kLayers = 8;
  constexpr int kWidth = 16;
  parallel::TaskGraph graph;
  std::vector<std::atomic<int>> fired(kLayers * kWidth);
  std::vector<parallel::TaskGraph::NodeId> prev;
  std::vector<parallel::TaskGraph::NodeId> cur;
  for (int l = 0; l < kLayers; ++l) {
    cur.clear();
    for (int w = 0; w < kWidth; ++w) {
      auto* cell = &fired[static_cast<std::size_t>(l * kWidth + w)];
      // Each node depends on the whole previous layer: a dense, wide DAG
      // with maximal release contention on every pending counter.
      cur.push_back(graph.add([cell] { cell->fetch_add(1); },
                              std::span<const parallel::TaskGraph::NodeId>(
                                  prev.data(), prev.size())));
    }
    prev = cur;
  }
  for (int rep = 0; rep < 10; ++rep) {
    for (auto& f : fired) f.store(0);
    graph.run(pool);
    for (auto& f : fired) EXPECT_EQ(f.load(), 1);
  }
}

TEST(ParallelStress, DataflowSolverMatchesSerialUnderOversubscription) {
  const mesh::Grid g = mesh::Grid::make_2d(32, 32, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  const auto ic = [](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y);
    w.vx = 0.2;
    w.vy = -0.1;
    w.p = 1.0;
    return w;
  };
  constexpr double kDt = 0.004;
  constexpr int kSteps = 4;

  solver::SrhdSolver ref(g, opt);
  ref.initialize(ic);
  for (int i = 0; i < kSteps; ++i) ref.step(kDt);
  const auto rho_ref = ref.gather_prim_var(srhd::kRho);

  // 4x4 blocks on 16 threads: every block's (exchange, compute) chain can
  // be live at once, with no barrier between steps.
  auto opt_mb = opt;
  opt_mb.blocks = {4, 4, 1};
  solver::SrhdSolver s(g, opt_mb);
  s.initialize(ic);
  parallel::ThreadPool pool(kThreads);
  s.run_steps(kSteps, kDt, pool);

  const auto rho = s.gather_prim_var(srhd::kRho);
  ASSERT_EQ(rho.size(), rho_ref.size());
  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_EQ(rho[i], rho_ref[i]) << "cell " << i;
  }
}

TEST(ParallelStress, NineRankHaloExchangeMatchesSerial) {
  // 9 communicator threads (3x3 topology) exchanging halos every stage.
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  const auto ic = [](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.4 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.vx = 0.3;
    w.vy = -0.15;
    w.p = 1.0;
    return w;
  };
  constexpr double kDt = 0.004;
  constexpr int kSteps = 3;

  solver::SrhdSolver ref(g, opt);
  ref.initialize(ic);
  for (int i = 0; i < kSteps; ++i) ref.step(kDt);
  const auto rho_ref = ref.gather_prim_var(srhd::kRho);

  std::vector<double> rho_dist;
  comm::run_world(9, [&](comm::Communicator& c) {
    solver::DistributedSrhdSolver s(g, c, opt);
    s.initialize(ic);
    for (int i = 0; i < kSteps; ++i) s.step(kDt);
    auto gathered = s.gather_prim_var_root(srhd::kRho);
    if (c.rank() == 0) rho_dist = std::move(gathered);
  });

  ASSERT_EQ(rho_dist.size(), rho_ref.size());
  for (std::size_t i = 0; i < rho_ref.size(); ++i) {
    EXPECT_EQ(rho_dist[i], rho_ref[i]) << "cell " << i;
  }
}

}  // namespace
