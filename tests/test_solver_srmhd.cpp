// SRMHD solver integration: stability on standard MHD problems, GLM
// divergence control, reduction to SRHD at B = 0, and failure injection
// (corrupted zones must be healed, not crash the run).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "rshc/analysis/norms.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/diagnostics.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/solver/rhs_core.hpp"

namespace {

using namespace rshc;
using solver::SrmhdSolver;

SrmhdSolver::Options mhd_opts() {
  SrmhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

TEST(SrmhdSolver, StaticMagnetizedGasStaysStatic) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  SrmhdSolver s(g, mhd_opts());
  s.initialize([](double, double, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    w.bx = 0.5;
    w.by = 0.25;
    return w;
  });
  for (int i = 0; i < 10; ++i) s.step(0.005);
  const auto rho = s.gather_prim_var(srmhd::kRho);
  const auto bx = s.gather_prim_var(srmhd::kBx);
  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_NEAR(rho[i], 1.0, 1e-11);
    EXPECT_NEAR(bx[i], 0.5, 1e-11);
  }
  EXPECT_NEAR(solver::max_divb(s), 0.0, 1e-11);
}

TEST(SrmhdSolver, UnmagnetizedSodMatchesSrhdSolver) {
  const problems::ShockTube st = problems::sod();
  const mesh::Grid g = mesh::Grid::make_1d(100, 0.0, 1.0);

  SrmhdSolver::Options mopt = mhd_opts();
  mopt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  mopt.physics.eos = eos::IdealGas(st.gamma);
  SrmhdSolver ms(g, mopt);
  ms.initialize([&st](double x, double, double) {
    const srhd::Prim h = x < st.x_split ? st.left : st.right;
    srmhd::Prim w;
    w.rho = h.rho;
    w.vx = h.vx;
    w.p = h.p;
    return w;
  });

  solver::SrhdSolver::Options hopt;
  hopt.recon = recon::Method::kPLMMC;
  hopt.cfl = 0.3;
  hopt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  hopt.physics.eos = eos::IdealGas(st.gamma);
  hopt.physics.riemann = riemann::Solver::kHLL;
  solver::SrhdSolver hs(g, hopt);
  hs.initialize(problems::shock_tube_ic(st));

  const double dt = 0.5 * std::min(ms.compute_dt(), hs.compute_dt());
  for (int i = 0; i < 40; ++i) {
    ms.step(dt);
    hs.step(dt);
  }
  const auto rho_m = ms.gather_prim_var(srmhd::kRho);
  const auto rho_h = hs.gather_prim_var(srhd::kRho);
  // Same HLL flux, same reconstruction: results agree to solver tolerance.
  EXPECT_LT(analysis::l1_error(rho_m, rho_h), 1e-8);
}

TEST(SrmhdSolver, BalsaraShockTubeRunsStable) {
  const problems::MhdShockTube st = problems::balsara_1();
  const mesh::Grid g = mesh::Grid::make_1d(200, 0.0, 1.0);
  SrmhdSolver::Options opt = mhd_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  SrmhdSolver s(g, opt);
  s.initialize(problems::mhd_shock_tube_ic(st));
  s.advance_to(st.t_final);

  const auto rho = s.gather_prim_var(srmhd::kRho);
  const auto by = s.gather_prim_var(srmhd::kBy);
  for (const double r : rho) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
  // Left state, compound structures, right state: By must transition from
  // +1 to -1 through the fan.
  EXPECT_NEAR(by.front(), 1.0, 1e-6);
  EXPECT_NEAR(by.back(), -1.0, 1e-6);
  // Density stays bounded by the initial extremes (no blow-up).
  for (const double r : rho) EXPECT_LT(r, 2.0);
  EXPECT_EQ(s.c2p_stats().floored_zones, 0);
}

TEST(SrmhdSolver, ConservationWithPeriodicBcs) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, -0.5, 0.5, -0.5, 0.5);
  SrmhdSolver s(g, mhd_opts());
  s.initialize(problems::field_loop_ic({}));
  const auto before = s.total_cons();
  for (int i = 0; i < 15; ++i) s.step(s.compute_dt());
  const auto after = s.total_cons();
  EXPECT_NEAR(after.d, before.d, 1e-11 * before.d);
  EXPECT_NEAR(after.bx, before.bx, 1e-11 * std::max(1.0, std::abs(before.bx)));
  EXPECT_NEAR(after.by, before.by, 1e-11 * std::max(1.0, std::abs(before.by)));
}

TEST(SrmhdSolver, GlmCleaningBoundsDivergenceGrowth) {
  auto run = [](bool cleaning) {
    const mesh::Grid g = mesh::Grid::make_2d(32, 32, -0.5, 0.5, -0.5, 0.5);
    SrmhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.cfl = 0.3;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(5.0 / 3.0);
    opt.physics.glm.enabled = cleaning;
    SrmhdSolver s(g, opt);
    // The discretized field loop edge seeds div B errors immediately.
    s.initialize(problems::field_loop_ic({}));
    for (int i = 0; i < 60; ++i) s.step(s.compute_dt());
    return solver::max_divb(s);
  };
  const double with_glm = run(true);
  const double without = run(false);
  EXPECT_LT(with_glm, 0.6 * without)
      << "cleaned=" << with_glm << " uncleaned=" << without;
}

TEST(SrmhdSolver, MhdBlastStaysPhysical) {
  const mesh::Grid g = mesh::Grid::make_2d(48, 48, -1.0, 1.0, -1.0, 1.0);
  SrmhdSolver::Options opt = mhd_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  SrmhdSolver s(g, opt);
  s.initialize(problems::mhd_blast2d_ic({}));
  for (int i = 0; i < 30; ++i) s.step(s.compute_dt());
  const auto p = s.gather_prim_var(srmhd::kP);
  const auto rho = s.gather_prim_var(srmhd::kRho);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GT(p[i], 0.0);
    EXPECT_GT(rho[i], 0.0);
    EXPECT_TRUE(std::isfinite(p[i]));
  }
}

TEST(SrmhdSolver, FailureInjectionIsHealedNotFatal) {
  // Corrupt one zone's conservatives mid-run: con2prim must floor it,
  // count it, and the run must continue producing finite output.
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0);
  SrmhdSolver s(g, mhd_opts());
  s.initialize([](double, double, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    w.bx = 0.2;
    return w;
  });
  s.step(s.compute_dt());

  auto& blk = s.block(0);
  auto& u = blk.cons();
  const int k = blk.begin(2);
  const int j = blk.begin(1) + 4;
  const int i = blk.begin(0) + 4;
  u(srmhd::kD, k, j, i) = -5.0;          // unphysical density
  u(srmhd::kTau, k, j, i) = -1.0;        // and energy
  const long long floored_before = s.c2p_stats().floored_zones;
  EXPECT_NO_THROW({
    for (int n = 0; n < 5; ++n) s.step(s.compute_dt());
  });
  EXPECT_GT(s.c2p_stats().floored_zones, floored_before);
  for (const double r : s.gather_prim_var(srmhd::kRho)) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(SrmhdSolver, PsiDampingShrinksPsiNorm) {
  const mesh::Grid g = mesh::Grid::make_2d(16, 16, -0.5, 0.5, -0.5, 0.5);
  SrmhdSolver::Options opt = mhd_opts();
  opt.physics.glm.alpha = 1.0;
  SrmhdSolver s(g, opt);
  // Seed pure psi noise on a static background.
  s.initialize([](double x, double y, double) {
    srmhd::Prim w;
    w.rho = 1.0;
    w.p = 1.0;
    w.psi = 0.1 * std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y);
    return w;
  });
  const double psi0 = solver::psi_l2(s);
  for (int i = 0; i < 30; ++i) s.step(s.compute_dt());
  EXPECT_LT(solver::psi_l2(s), psi0);
}

// Ghosted 2-d slab shape plus cons/prim arrays whose every entry differs,
// so a post-step body that touches the wrong variable or skips a ghost
// cell shows up as a changed value.
struct PostStepSlabs {
  solver::core::BlockShape sh;
  std::vector<double> u;
  std::vector<double> w;

  explicit PostStepSlabs(int nvars) {
    sh.ndim = 2;
    sh.total = {7, 6, 1};
    sh.begin = {2, 2, 0};
    sh.end = {5, 4, 1};
    sh.inv_dx = {10.0, 10.0, 0.0};
    const std::size_t n = static_cast<std::size_t>(nvars) * sh.cells();
    u.resize(n);
    w.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = 1.0 + 0.25 * static_cast<double>(i);
      w[i] = -3.0 + 0.125 * static_cast<double>(i);
    }
  }
};

TEST(SrmhdPostStep, DampsPsiSlabsIncludingGhostsAndNothingElse) {
  solver::SrmhdPhysics::Context ctx;
  ctx.glm.alpha = 0.3;
  PostStepSlabs x(srmhd::kNumVars);
  const PostStepSlabs ref(srmhd::kNumVars);
  const double dt = 0.02;
  const double dx = 0.1;
  solver::core::post_step_slabs<solver::SrmhdPhysics>(x.sh, ctx, x.u.data(),
                                                      x.w.data(), dt, dx);
  const double factor = srmhd::glm_damping_factor(ctx.glm, dt, dx);
  ASSERT_LT(factor, 1.0);
  const std::size_t cells = x.sh.cells();
  const std::size_t psi0 = static_cast<std::size_t>(srmhd::kPsi) * cells;
  for (std::size_t i = 0; i < x.u.size(); ++i) {
    const bool psi = i >= psi0 && i < psi0 + cells;
    EXPECT_EQ(x.u[i], psi ? ref.u[i] * factor : ref.u[i]) << "cons " << i;
    EXPECT_EQ(x.w[i], psi ? ref.w[i] * factor : ref.w[i]) << "prim " << i;
  }
}

TEST(SrmhdPostStep, NoDampingLeavesStateUntouched) {
  for (const bool enabled : {false, true}) {
    solver::SrmhdPhysics::Context ctx;
    ctx.glm.enabled = enabled;
    ctx.glm.alpha = enabled ? 0.0 : 0.3;  // either way the factor is 1
    PostStepSlabs x(srmhd::kNumVars);
    const PostStepSlabs ref(srmhd::kNumVars);
    solver::core::post_step_slabs<solver::SrmhdPhysics>(
        x.sh, ctx, x.u.data(), x.w.data(), 0.02, 0.1);
    EXPECT_EQ(x.u, ref.u) << "enabled " << enabled;
    EXPECT_EQ(x.w, ref.w) << "enabled " << enabled;
  }
}

TEST(SrhdPostStep, IsANoOp) {
  const solver::SrhdPhysics::Context ctx;
  PostStepSlabs x(srhd::kNumVars);
  const PostStepSlabs ref(srhd::kNumVars);
  solver::core::post_step_slabs<solver::SrhdPhysics>(x.sh, ctx, x.u.data(),
                                                     x.w.data(), 0.02, 0.1);
  EXPECT_EQ(x.u, ref.u);
  EXPECT_EQ(x.w, ref.w);
}

// Multi-block SRMHD through every host schedule of the step graph:
// core::post_step_slabs (GLM psi damping) runs inside the last-stage
// compute node, so serial, dataflow and bulk-sync stepping must agree
// bitwise in every variable, cons and prims.
TEST(SrmhdSolverModes, FieldLoopStepDataflowBulkSyncBitwise) {
  const mesh::Grid g = mesh::Grid::make_2d(24, 24, -0.5, 0.5, -0.5, 0.5);
  SrmhdSolver::Options opt = mhd_opts();
  opt.blocks = {2, 2, 1};
  constexpr int kSteps = 5;
  auto run = [&](int mode) {
    auto s = std::make_unique<SrmhdSolver>(g, opt);
    s->initialize(problems::field_loop_ic({}));
    const double dt = 0.5 * s->compute_dt();
    parallel::ThreadPool pool(3);
    switch (mode) {
      case 0:
        for (int i = 0; i < kSteps; ++i) s->step(dt);
        break;
      case 1:
        s->run_steps(kSteps, dt, pool, solver::Schedule::kDataflow);
        break;
      default:
        s->run_steps(kSteps, dt, pool, solver::Schedule::kBulkSync);
        break;
    }
    return s;
  };
  const auto serial = run(0);
  for (const int mode : {1, 2}) {
    const auto other = run(mode);
    EXPECT_EQ(other->steps_taken(), kSteps);
    EXPECT_EQ(other->c2p_stats().floored_zones,
              serial->c2p_stats().floored_zones);
    for (int b = 0; b < serial->num_blocks(); ++b) {
      const mesh::Block& x = serial->block(b);
      const mesh::Block& y = other->block(b);
      for (const bool cons : {true, false}) {
        const auto fx = cons ? x.cons().flat() : x.prim().flat();
        const auto fy = cons ? y.cons().flat() : y.prim().flat();
        ASSERT_EQ(fx.size(), fy.size());
        EXPECT_EQ(
            std::memcmp(fx.data(), fy.data(), fx.size() * sizeof(double)), 0)
            << "mode " << mode << " block " << b << (cons ? " cons" : " prim");
      }
    }
  }
}

}  // namespace
