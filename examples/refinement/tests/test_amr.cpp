// Two-level mesh refinement: restriction/prolongation correctness, no
// coarse-fine boundary artifacts on trivial states, accuracy gain inside
// the refined region, and bounded conservation drift (no refluxing).

#include <gtest/gtest.h>

#include <cmath>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/analysis/norms.hpp"
#include "rshc/common/error.hpp"
#include "rshc/problems/problems.hpp"

#include "two_level.hpp"

namespace {

using namespace rshc;
using amr::RefineRegion;
using amr::TwoLevelSrhdSolver;

solver::SrhdSolver::Options tube_opts() {
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(5.0 / 3.0);
  return opt;
}

TEST(Amr, GeometryOfTheFineLevel) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  TwoLevelSrhdSolver s(g, tube_opts(), RefineRegion{{24, 0, 0}, {40, 1, 1}});
  EXPECT_EQ(s.fine().grid().extent(0), 32);  // 16 coarse cells x 2
  EXPECT_NEAR(s.fine().grid().xmin(0), 24.0 / 64.0, 1e-14);
  EXPECT_NEAR(s.fine().grid().xmax(0), 40.0 / 64.0, 1e-14);
  EXPECT_NEAR(s.fine().grid().dx(0), 0.5 * g.dx(0), 1e-15);
}

TEST(Amr, RegionValidation) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  EXPECT_THROW(TwoLevelSrhdSolver(g, tube_opts(),
                                  RefineRegion{{30, 0, 0}, {30, 1, 1}}),
               Error);  // empty
  EXPECT_THROW(TwoLevelSrhdSolver(g, tube_opts(),
                                  RefineRegion{{0, 0, 0}, {10, 1, 1}}),
               Error);  // touches the boundary
  EXPECT_THROW(TwoLevelSrhdSolver(g, tube_opts(),
                                  RefineRegion{{50, 0, 0}, {70, 1, 1}}),
               Error);  // past the grid
}

TEST(Amr, RestrictionAveragesFineOntoCoarse) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  TwoLevelSrhdSolver s(g, tube_opts(), RefineRegion{{24, 0, 0}, {40, 1, 1}});
  s.initialize([](double x, double, double) {
    return srhd::Prim{1.0 + x, 0.0, 0.0, 0.0, 1.0};
  });
  // Under the region, coarse D must equal the average of its two fine
  // cells' D (initialize() already ran restriction).
  const auto& fb = s.fine().block(0);
  for (long long gi = 24; gi < 40; ++gi) {
    const long long fi0 = (gi - 24) * 2;
    const double d_fine_avg =
        0.5 * (fb.cons()(srhd::kD, 0, 0, static_cast<int>(fi0) + fb.ghost(0)) +
               fb.cons()(srhd::kD, 0, 0, static_cast<int>(fi0) + 1 + fb.ghost(0)));
    // Locate the coarse cell through the public sampler.
    const auto p = s.coarse().prim_at(gi);
    const double W = p.lorentz();
    EXPECT_NEAR(p.rho * W, d_fine_avg, 1e-10) << "coarse cell " << gi;
  }
}

TEST(Amr, StaticGasProducesNoBoundaryArtifacts) {
  const mesh::Grid g = mesh::Grid::make_2d(32, 32, 0.0, 1.0, 0.0, 1.0);
  TwoLevelSrhdSolver s(g, tube_opts(),
                       RefineRegion{{10, 10, 0}, {22, 22, 1}});
  s.initialize([](double, double, double) {
    return srhd::Prim{1.0, 0.0, 0.0, 0.0, 1.0};
  });
  for (int i = 0; i < 8; ++i) s.step(s.compute_dt());
  for (const double r : s.gather_composite_var(srhd::kRho)) {
    EXPECT_NEAR(r, 1.0, 1e-11);
  }
  for (const double r : s.fine().gather_prim_var(srhd::kRho)) {
    EXPECT_NEAR(r, 1.0, 1e-11);
  }
}

TEST(Amr, SmoothWaveCrossesTheInterfaceStably) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  auto opt = tube_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  TwoLevelSrhdSolver s(g, opt, RefineRegion{{24, 0, 0}, {40, 1, 1}});
  s.initialize(problems::smooth_wave_ic({}));
  const double mass0 = s.coarse().total_cons().d;
  s.advance_to(0.3);
  const auto rho = s.gather_composite_var(srhd::kRho);
  for (const double r : rho) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.5);
    EXPECT_LT(r, 1.5);
  }
  // No refluxing: conservation only to the boundary-flux mismatch, which
  // must stay at the truncation level.
  const double drift =
      std::abs(s.coarse().total_cons().d - mass0) / mass0;
  EXPECT_LT(drift, 2e-3);
}

TEST(Amr, RefinementImprovesShockAccuracyInRegion) {
  const problems::ShockTube st = problems::sod();
  auto opt = tube_opts();
  opt.physics.eos = eos::IdealGas(st.gamma);
  const mesh::Grid coarse_grid = mesh::Grid::make_1d(100, 0.0, 1.0);

  // Uniform coarse baseline.
  solver::SrhdSolver uniform(coarse_grid, opt);
  uniform.initialize(problems::shock_tube_ic(st));
  uniform.advance_to(st.t_final);

  // Refined run: region covering where the waves travel.
  TwoLevelSrhdSolver refined(coarse_grid, opt,
                             RefineRegion{{30, 0, 0}, {90, 1, 1}});
  refined.initialize(problems::shock_tube_ic(st));
  refined.advance_to(st.t_final);

  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  auto region_error = [&](solver::SrhdSolver& s) {
    double sum = 0.0;
    long long count = 0;
    for (long long i = 30; i < 90; ++i) {
      const double x = coarse_grid.cell_center(0, i);
      sum += std::abs(s.prim_at(i).rho -
                      exact.sample((x - st.x_split) / st.t_final).rho);
      ++count;
    }
    return sum / static_cast<double>(count);
  };
  const double e_uniform = region_error(uniform);
  const double e_refined = region_error(refined.coarse());
  EXPECT_LT(e_refined, 0.85 * e_uniform)
      << "uniform=" << e_uniform << " refined=" << e_refined;
}

TEST(Amr, AdaptiveRegionTracksTheShock) {
  // Sod tube with a deliberately off-target initial region: adaptivity
  // must move the refined region onto the wave structures.
  const problems::ShockTube st = problems::sod();
  auto opt = tube_opts();
  opt.physics.eos = eos::IdealGas(st.gamma);
  const mesh::Grid g = mesh::Grid::make_1d(128, 0.0, 1.0);
  TwoLevelSrhdSolver s(g, opt, RefineRegion{{8, 0, 0}, {24, 1, 1}});
  s.enable_adaptivity(/*interval=*/5, /*threshold=*/0.05, /*padding=*/4);
  s.initialize(problems::shock_tube_ic(st));
  s.advance_to(st.t_final);
  // At t=0.35 the contact sits near x ~ 0.65 and the shock near x ~ 0.8;
  // the rarefaction is smooth (per-cell jumps below threshold) so the
  // region legitimately ignores it. The region must have left its
  // off-target start and cover contact + shock.
  const double xlo = static_cast<double>(s.region().lo[0]) / 128.0;
  const double xhi = static_cast<double>(s.region().hi[0]) / 128.0;
  EXPECT_GT(xlo, 0.30);  // moved away from [0.06, 0.19)
  EXPECT_LT(xlo, 0.68);  // still covers the contact
  EXPECT_GT(xhi, 0.75);  // covers the shock
  // And the solution stayed physical through every regrid.
  for (const double r : s.gather_composite_var(srhd::kRho)) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(Amr, RegridTransfersFineDataOnOverlap) {
  // Manually trigger a regrid on a smooth state: where old and new
  // regions overlap, the fine data must be preserved exactly.
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  auto opt = tube_opts();
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  TwoLevelSrhdSolver s(g, opt, RefineRegion{{20, 0, 0}, {36, 1, 1}});
  s.enable_adaptivity(/*interval=*/1000, /*threshold=*/0.02);
  s.initialize(problems::smooth_wave_ic({}));
  s.step(s.compute_dt());  // fine data now differs from a fresh prolongation
  const auto before = s.fine().gather_prim_var(srhd::kRho);
  const auto region_before = s.region();
  s.regrid_now();
  // The smooth sine flags a band around its steep flanks; whatever the new
  // region is, overlap cells must carry the old fine values.
  const auto& ng = s.fine().grid();
  const auto& og_lo = region_before.lo[0];
  const auto& og_hi = region_before.hi[0];
  int checked = 0;
  for (long long fi = 0; fi < ng.extent(0); ++fi) {
    const double x = ng.cell_center(0, fi);
    const long long coarse_cell =
        static_cast<long long>(std::floor(x * 64.0));
    if (coarse_cell < og_lo || coarse_cell >= og_hi) continue;
    // Old fine index of the same physical cell.
    const long long old_fi =
        static_cast<long long>(std::floor((x - static_cast<double>(og_lo) / 64.0) /
                                          (0.5 / 64.0)));
    if (old_fi < 0 ||
        old_fi >= static_cast<long long>(before.size())) {
      continue;
    }
    EXPECT_DOUBLE_EQ(s.fine().prim_at(fi).rho,
                     before[static_cast<std::size_t>(old_fi)])
        << "fine cell " << fi;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Amr, AdaptiveBeatsStaticOffTargetRegion) {
  const problems::ShockTube st = problems::sod();
  auto opt = tube_opts();
  opt.physics.eos = eos::IdealGas(st.gamma);
  const mesh::Grid g = mesh::Grid::make_1d(128, 0.0, 1.0);
  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  auto run = [&](bool adaptive) {
    TwoLevelSrhdSolver s(g, opt, RefineRegion{{8, 0, 0}, {24, 1, 1}});
    if (adaptive) s.enable_adaptivity(5, 0.05, 4);
    s.initialize(problems::shock_tube_ic(st));
    s.advance_to(st.t_final);
    double sum = 0.0;
    for (long long i = 0; i < 128; ++i) {
      const double x = g.cell_center(0, i);
      sum += std::abs(s.coarse().prim_at(i).rho -
                      exact.sample((x - st.x_split) / st.t_final).rho);
    }
    return sum / 128.0;
  };
  const double e_static = run(false);
  const double e_adaptive = run(true);
  EXPECT_LT(e_adaptive, e_static)
      << "static=" << e_static << " adaptive=" << e_adaptive;
}

TEST(Amr, FineDtIsTheBindingOne) {
  const mesh::Grid g = mesh::Grid::make_1d(64, 0.0, 1.0);
  TwoLevelSrhdSolver s(g, tube_opts(), RefineRegion{{24, 0, 0}, {40, 1, 1}});
  s.initialize(problems::smooth_wave_ic({}));
  EXPECT_LE(s.compute_dt(), s.coarse().compute_dt());
  EXPECT_NEAR(s.compute_dt(), s.fine().compute_dt(), 1e-15);
}

}  // namespace
