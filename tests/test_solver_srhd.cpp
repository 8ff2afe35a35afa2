// Integration tests of the SRHD finite-volume solver: conservation,
// accuracy against exact solutions, and bit-equivalence of every execution
// mode (serial / bulk-synchronous / dataflow / multi-block).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/common/math.hpp"
#include "rshc/analysis/norms.hpp"
#include "rshc/common/error.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"

namespace {

using namespace rshc;
using solver::SrhdSolver;

SrhdSolver::Options periodic_opts() {
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

// The host exposes one pipeline plus the device: the retired pencil and
// batched-scalar names must fail loudly (naming the value), not fall back.
TEST(HostPipelineNames, RejectsRetiredNamesAndRoundTripsTheRest) {
  for (const char* retired : {"pencil", "batched-scalar"}) {
    try {
      (void)solver::parse_host_pipeline(retired);
      ADD_FAILURE() << "parse_host_pipeline accepted '" << retired << "'";
    } catch (const Error& e) {
      const std::string quoted = "'" + std::string(retired) + "'";
      EXPECT_NE(std::string(e.what()).find(quoted), std::string::npos)
          << e.what();
    }
  }
  for (const auto p :
       {solver::HostPipeline::kBatchedSimd, solver::HostPipeline::kDevice}) {
    EXPECT_EQ(solver::parse_host_pipeline(solver::host_pipeline_name(p)), p);
  }
}

TEST(SrhdSolver, StaticGasStaysStatic) {
  const mesh::Grid g = mesh::Grid::make_1d(32, 0.0, 1.0);
  SrhdSolver s(g, periodic_opts());
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  for (int i = 0; i < 10; ++i) s.step(0.005);
  const auto rho = s.gather_prim_var(srhd::kRho);
  for (const double r : rho) EXPECT_NEAR(r, 1.0, 1e-12);
  EXPECT_NEAR(s.time(), 0.05, 1e-14);
}

TEST(SrhdSolver, PeriodicAdvectionConservesExactly) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver s(g, periodic_opts());
  s.initialize(problems::smooth_wave_ic({}));
  const auto before = s.total_cons();
  for (int i = 0; i < 50; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-12 * std::abs(before.d));
  EXPECT_NEAR(after.sx, before.sx, 1e-12 * std::abs(before.sx));
  EXPECT_NEAR(after.tau, before.tau, 1e-11 * std::abs(before.tau));
}

TEST(SrhdSolver, SmoothWaveAdvectsAtTheRightSpeed) {
  const problems::SmoothWave wave{};
  const mesh::Grid g = mesh::Grid::make_1d(128, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.recon = recon::Method::kWENO5;
  SrhdSolver s(g, opt);
  s.initialize(problems::smooth_wave_ic(wave));
  const double t_end = 0.4;
  s.advance_to(t_end);
  const auto rho = s.gather_prim_var(srhd::kRho);
  std::vector<double> exact(rho.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = problems::smooth_wave_exact_rho(
        wave, g.cell_center(0, static_cast<long long>(i)), s.time());
  }
  EXPECT_LT(analysis::l1_error(rho, exact), 2e-5);
}

TEST(SrhdSolver, HigherResolutionReducesError) {
  const problems::SmoothWave wave{};
  auto run = [&](long long n) {
    const mesh::Grid g = mesh::Grid::make_1d(n, 0.0, 1.0);
    auto opt = periodic_opts();
    opt.recon = recon::Method::kPLMMC;
    SrhdSolver s(g, opt);
    s.initialize(problems::smooth_wave_ic(wave));
    s.advance_to(0.2);
    const auto rho = s.gather_prim_var(srhd::kRho);
    std::vector<double> exact(rho.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      exact[i] = problems::smooth_wave_exact_rho(
          wave, g.cell_center(0, static_cast<long long>(i)), s.time());
    }
    return analysis::l1_error(rho, exact);
  };
  const double e32 = run(32);
  const double e64 = run(64);
  const double e128 = run(128);
  EXPECT_GT(analysis::convergence_order(e32, e64), 1.5);
  EXPECT_GT(analysis::convergence_order(e64, e128), 1.5);
}

TEST(SrhdSolver, ShockTubeMatchesExactSolution) {
  const problems::ShockTube st = problems::marti_muller_1();
  const mesh::Grid g = mesh::Grid::make_1d(200, 0.0, 1.0);
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  opt.physics.riemann = riemann::Solver::kHLLC;
  SrhdSolver s(g, opt);
  s.initialize(problems::shock_tube_ic(st));
  s.advance_to(st.t_final);

  const analysis::ExactRiemann exact({st.left.rho, st.left.vx, st.left.p},
                                     {st.right.rho, st.right.vx, st.right.p},
                                     st.gamma);
  const auto rho = s.gather_prim_var(srhd::kRho);
  std::vector<double> ref(rho.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = exact
                 .sample((g.cell_center(0, static_cast<long long>(i)) -
                          st.x_split) /
                         st.t_final)
                 .rho;
  }
  EXPECT_LT(analysis::l1_error(rho, ref), 0.12);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

// Golden regression: a fixed 64-zone Sod tube run to t_final must land on
// the committed reference L1 norms to near machine precision. Catches any
// unintended change to the numerics (reconstruction, Riemann solver, RK
// update, con2prim) that the physics-based tolerances above are too loose
// to see. Regenerate the constants only for a *deliberate* scheme change
// (print the three norms at %.17g from the same configuration).
TEST(SrhdSolver, SodTubeGoldenRegression) {
  const problems::ShockTube st = problems::sod();
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  SrhdSolver s(g, opt);
  s.initialize(problems::shock_tube_ic(st));
  const int steps = s.advance_to(st.t_final);

  auto l1_norm = [&s](int v) {
    const auto q = s.gather_prim_var(v);
    double sum = 0.0;
    for (const double x : q) sum += std::abs(x);
    return sum / static_cast<double>(q.size());
  };

  EXPECT_EQ(steps, 45);
  EXPECT_NEAR(s.time(), 0.34999999999999998, 1e-15);
  EXPECT_NEAR(l1_norm(srhd::kRho), 0.54785385701791078, 1e-12);
  EXPECT_NEAR(l1_norm(srhd::kVx), 0.16503998510132389, 1e-12);
  EXPECT_NEAR(l1_norm(srhd::kP), 0.50847999696324442, 1e-12);
}

TEST(SrhdSolver, ReflectingWallsConserveMass) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver::Options opt = periodic_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kReflect);
  SrhdSolver s(g, opt);
  // Gas sloshing against the walls.
  s.initialize([](double x, double, double) {
    return srhd::Prim{1.0, 0.3 * std::sin(M_PI * x), 0.0, 0.0, 1.0};
  });
  const double mass0 = s.total_cons().d;
  for (int i = 0; i < 40; ++i) s.step(s.compute_dt());
  EXPECT_NEAR(s.total_cons().d, mass0, 1e-11 * mass0);
}

// --- execution-mode equivalence ---------------------------------------------

std::vector<double> run_mode(int blocks_x, int blocks_y, int mode,
                             int threads) {
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {blocks_x, blocks_y, 1};
  SrhdSolver s(g, opt);
  s.initialize([](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.4 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.vx = 0.3;
    w.vy = -0.2;
    w.p = 1.0;
    return w;
  });
  parallel::ThreadPool pool(static_cast<unsigned>(threads));
  const double dt = 0.004;
  for (int i = 0; i < 12; ++i) {
    switch (mode) {
      case 0: s.step(dt); break;
      case 1: s.run_steps(1, dt, pool, solver::Schedule::kBulkSync); break;
      case 2: s.run_steps(1, dt, pool, solver::Schedule::kDataflow); break;
      default: break;
    }
  }
  return s.gather_prim_var(srhd::kRho);
}

TEST(SrhdSolverModes, BulkSyncMatchesSerialBitwise) {
  const auto serial = run_mode(2, 2, 0, 1);
  const auto bulk = run_mode(2, 2, 1, 3);
  ASSERT_EQ(serial.size(), bulk.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], bulk[i]) << "cell " << i;
  }
}

TEST(SrhdSolverModes, DataflowMatchesSerialBitwise) {
  const auto serial = run_mode(2, 2, 0, 1);
  const auto flow = run_mode(2, 2, 2, 3);
  ASSERT_EQ(serial.size(), flow.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], flow[i]) << "cell " << i;
  }
}

TEST(SrhdSolverModes, BlockCountDoesNotChangeTheAnswer) {
  const auto one = run_mode(1, 1, 0, 1);
  const auto many = run_mode(3, 2, 0, 1);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_NEAR(one[i], many[i], 1e-13) << "cell " << i;
  }
}

TEST(SrhdSolverModes, MultiStepDataflowGraphMatchesStepwise) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  auto ic = [](double x, double y, double) {
    return srhd::Prim{1.0 + 0.3 * std::sin(2 * M_PI * (x + y)), 0.25, 0.1,
                      0.0, 1.0};
  };
  parallel::ThreadPool pool(2);
  SrhdSolver b(g, opt);
  b.initialize(ic);
  for (int i = 0; i < 6; ++i) b.step(0.005);
  const auto rb = b.gather_prim_var(srhd::kRho);

  for (const auto schedule :
       {solver::Schedule::kDataflow, solver::Schedule::kBulkSync}) {
    SrhdSolver a(g, opt);
    a.initialize(ic);
    a.run_steps(6, 0.005, pool, schedule);
    const auto ra = a.gather_prim_var(srhd::kRho);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i], rb[i])
          << "cell " << i << " bulk-sync="
          << (schedule == solver::Schedule::kBulkSync);
    }
    EXPECT_NEAR(a.time(), b.time(), 1e-15);
    EXPECT_EQ(a.steps_taken(), b.steps_taken());
  }
}

TEST(SrhdSolver, RestrictedStepWithoutGhostFillerThrowsAndLeavesState) {
  // The per-rank view has no sibling blocks to copy ghosts from: stepping
  // it without a filler must fail in the first exchange, before the step
  // touches cons, prims or the clock — on either pipeline. On kDevice the
  // throwing E node has queued nothing (the kernels are its K node's), so
  // no byte crosses the link and the device state, read back with
  // sync_from_device(), is the pre-step state.
  const mesh::Grid g = mesh::Grid::make_2d(16, 8, 0.0, 1.0, 0.0, 0.5);
  auto fill = [](SrhdSolver& s) {
    s.set_ghost_filler([&s](int) {
      auto& blk = s.block(0);
      for (int axis = 0; axis < 2; ++axis) {
        for (int side = 0; side < 2; ++side) {
          mesh::apply_physical_boundary(
              blk, axis, side, mesh::BcType::kOutflow,
              solver::SrhdPhysics::reflect_negate_vars(axis));
        }
      }
    });
  };
  std::vector<std::vector<double>> after_retry;
  for (const auto pipeline :
       {solver::HostPipeline::kBatchedSimd, solver::HostPipeline::kDevice}) {
    SCOPED_TRACE(std::string(solver::host_pipeline_name(pipeline)));
    auto opt = periodic_opts();
    opt.pipeline = pipeline;
    opt.accel = {0.0, 1e30, 0.0};  // zero-cost link
    SrhdSolver s(g, opt, mesh::BlockExtents{{0, 0, 0}, {16, 8, 1}});
    fill(s);
    s.initialize([](double x, double y, double) {
      return srhd::Prim{1.0 + 0.3 * std::sin(2 * M_PI * (x + y)), 0.2, -0.1,
                        0.0, 1.0};
    });
    s.step(0.005);
    s.sync_from_device();
    const double t0 = s.time();
    const auto cons0 = s.block(0).cons().flat();
    const auto prim0 = s.block(0).prim().flat();
    const std::vector<double> cons(cons0.begin(), cons0.end());
    const std::vector<double> prim(prim0.begin(), prim0.end());
    auto& h2d = obs::Registry::global().counter("device.h2d.bytes");
    auto& d2h = obs::Registry::global().counter("device.d2h.bytes");
    const std::int64_t h2d0 = h2d.total();
    const std::int64_t d2h0 = d2h.total();

    s.set_ghost_filler({});
    try {
      s.step(0.005);
      ADD_FAILURE() << "step() without a ghost filler did not throw";
    } catch (const rshc::Error& e) {
      EXPECT_NE(std::string(e.what()).find("needs set_ghost_filler"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(h2d.total(), h2d0) << "the failed step uploaded";
    EXPECT_EQ(d2h.total(), d2h0) << "the failed step downloaded";
    EXPECT_EQ(s.time(), t0);
    EXPECT_EQ(s.steps_taken(), 1);
    s.sync_from_device();
    const auto cons1 = s.block(0).cons().flat();
    const auto prim1 = s.block(0).prim().flat();
    ASSERT_EQ(cons1.size(), cons.size());
    ASSERT_EQ(prim1.size(), prim.size());
    EXPECT_EQ(std::memcmp(cons1.data(), cons.data(),
                          cons.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(prim1.data(), prim.data(),
                          prim.size() * sizeof(double)),
              0);

    // With the filler back, stepping resumes as if the failure never was.
    fill(s);
    s.step(0.005);
    s.sync_from_device();
    const auto cons2 = s.block(0).cons().flat();
    after_retry.emplace_back(cons2.begin(), cons2.end());
  }
  ASSERT_EQ(after_retry.size(), 2u);
  EXPECT_EQ(std::memcmp(after_retry[0].data(), after_retry[1].data(),
                        after_retry[0].size() * sizeof(double)),
            0)
      << "the device retry diverged from the host retry";
}

// recover_all_prims (checkpoint restore, serve resume) runs the batched
// con2prim; a zone it floors must reach c2p_stats() like one floored by a
// step.
TEST(SrhdSolver, RecoverAllPrimsCountsFlooredZones) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 8, 0.0, 1.0, 0.0, 0.5);
  SrhdSolver s(g, periodic_opts());
  s.initialize([](double x, double, double) {
    return srhd::Prim{1.0 + 0.2 * std::sin(2 * M_PI * x), 0.1, 0.0, 0.0, 1.0};
  });
  ASSERT_EQ(s.c2p_stats().floored_zones, 0);
  mesh::Block& blk = s.block(0);
  const double floor = s.options().physics.c2p.rho_floor;
  blk.cons()(srhd::kD, blk.begin(2), blk.begin(1) + 3, blk.begin(0) + 5) =
      0.5 * floor;
  s.recover_all_prims();
  EXPECT_EQ(s.c2p_stats().floored_zones, 1);
  EXPECT_GT(s.c2p_stats().total_iterations, 0);
}

TEST(SrhdSolver, TwoDimensionalConservation) {
  const mesh::Grid g = mesh::Grid::make_2d(20, 20, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  SrhdSolver s(g, opt);
  s.initialize([](double x, double y, double) {
    srhd::Prim w;
    w.rho = 1.0 + 0.5 * std::exp(-50.0 * (rshc::sq(x - 0.5) + rshc::sq(y - 0.5)));
    w.p = 1.0;
    w.vx = 0.2;
    return w;
  });
  const auto before = s.total_cons();
  for (int i = 0; i < 20; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-11 * before.d);
  EXPECT_NEAR(after.tau, before.tau, 1e-10 * std::abs(before.tau));
}

TEST(SrhdSolver, ComputeDtScalesWithResolution) {
  auto opt = periodic_opts();
  const mesh::Grid g1 = mesh::Grid::make_1d(32, 0.0, 1.0);
  const mesh::Grid g2 = mesh::Grid::make_1d(64, 0.0, 1.0);
  SrhdSolver s1(g1, opt);
  SrhdSolver s2(g2, opt);
  const auto ic = problems::smooth_wave_ic({});
  s1.initialize(ic);
  s2.initialize(ic);
  EXPECT_NEAR(s1.compute_dt() / s2.compute_dt(), 2.0, 0.05);
}

TEST(SrhdSolver, PrimAtReadsTheRightCell) {
  const mesh::Grid g = mesh::Grid::make_2d(8, 8, 0.0, 1.0, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.blocks = {2, 2, 1};
  SrhdSolver s(g, opt);
  s.initialize([](double x, double y, double) {
    return srhd::Prim{1.0 + x + 10.0 * y, 0.0, 0.0, 0.0, 1.0};
  });
  const auto p = s.prim_at(5, 6);
  EXPECT_NEAR(p.rho, 1.0 + g.cell_center(0, 5) + 10.0 * g.cell_center(1, 6),
              1e-13);
  EXPECT_THROW((void)s.prim_at(100, 0), Error);
}

TEST(SrhdSolver, RejectsBlocksSmallerThanStencil) {
  const mesh::Grid g = mesh::Grid::make_1d(8, 0.0, 1.0);
  auto opt = periodic_opts();
  opt.recon = recon::Method::kWENO5;  // ghost width 3
  opt.blocks = {4, 1, 1};             // 2 cells per block < 3
  EXPECT_THROW(SrhdSolver(g, opt), Error);
}

}  // namespace
