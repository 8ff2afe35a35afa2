// Host pipeline vs per-pencil reference: the batched slab-wise rhs / RK
// update / con2prim / CFL path (DESIGN.md system #12) promises *bitwise*
// identical states to the per-pencil oracle (support/pencil_reference.hpp),
// for every reconstruction scheme, Riemann solver, physics system, and
// dimensionality — including the restricted-block (distributed per-rank)
// constructor. Any ulp of drift here means the batched path reassociated
// arithmetic or reordered an accumulation, which this suite exists to
// catch.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <tuple>

#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;

constexpr double kPi = 3.14159265358979323846;

/// Count elements whose *bit patterns* differ (tolerates nothing, not even
/// -0.0 vs +0.0 or differing NaN payloads).
int count_bit_diffs(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++diffs;
  }
  return diffs;
}

/// Run `nsteps` fixed-dt steps on the host pipeline and under the
/// per-pencil oracle, then require bitwise-equal cons and prim fields on
/// every block, an identical dt, and identical con2prim health counters.
template <typename Solver, typename Ic>
void expect_matches_pencil(const mesh::Grid& g,
                           const typename Solver::Options& opt, const Ic& ic,
                           int nsteps) {
  Solver ref(g, opt);
  ref.initialize(ic);
  testsupport::PencilReference pencil(ref);
  Solver s(g, opt);
  s.initialize(ic);

  const double dt = pencil.compute_dt();
  EXPECT_EQ(dt, s.compute_dt()) << "batched compute_dt drifted";
  for (int n = 0; n < nsteps; ++n) {
    pencil.step(dt);
    s.step(dt);
  }

  ASSERT_EQ(ref.num_blocks(), s.num_blocks());
  for (int b = 0; b < ref.num_blocks(); ++b) {
    EXPECT_EQ(count_bit_diffs(ref.block(b).cons().flat(),
                              s.block(b).cons().flat()),
              0)
        << "cons mismatch on block " << b;
    EXPECT_EQ(count_bit_diffs(ref.block(b).prim().flat(),
                              s.block(b).prim().flat()),
              0)
        << "prim mismatch on block " << b;
  }
  EXPECT_EQ(pencil.c2p_stats().total_iterations,
            s.c2p_stats().total_iterations);
  EXPECT_EQ(pencil.c2p_stats().floored_zones, s.c2p_stats().floored_zones);
}

/// SRHD workload with structure along every active axis: a shock-tube jump
/// in x riding on smooth transverse variations, so reconstruction,
/// limiting, and flux accumulation are all exercised per axis.
srhd::Prim srhd_ic(double x, double y, double z) {
  const bool left = x < 0.5;
  srhd::Prim p;
  p.rho = (left ? 1.0 : 0.125) + 0.05 * std::sin(2.0 * kPi * y) +
          0.05 * std::cos(2.0 * kPi * z);
  p.vx = left ? 0.1 : -0.1;
  p.vy = 0.05 * std::sin(2.0 * kPi * x);
  p.vz = 0.05 * std::cos(2.0 * kPi * y);
  p.p = (left ? 1.0 : 0.1) + 0.02 * std::sin(2.0 * kPi * (x + z));
  return p;
}

/// SRMHD analogue: Balsara-1-like jump plus transverse field structure.
srmhd::Prim srmhd_ic(double x, double y, double z) {
  const bool left = x < 0.5;
  srmhd::Prim p;
  p.rho = left ? 1.0 : 0.125;
  p.vx = 0.05 * std::sin(2.0 * kPi * y);
  p.vy = 0.05 * std::cos(2.0 * kPi * x);
  p.vz = 0.02 * std::sin(2.0 * kPi * z);
  p.p = left ? 1.0 : 0.1;
  p.bx = 0.5;
  p.by = (left ? 1.0 : -1.0) + 0.1 * std::sin(2.0 * kPi * z);
  p.bz = 0.1 * std::cos(2.0 * kPi * y);
  p.psi = 0.0;
  return p;
}

/// Grid + step count per dimensionality (small but multi-block in 1D/2D).
struct Case {
  mesh::Grid grid;
  std::array<int, 3> blocks;
  int nsteps;
};

Case make_case(int ndim) {
  switch (ndim) {
    case 1:
      return {mesh::Grid::make_1d(64, 0.0, 1.0), {2, 1, 1}, 4};
    case 2:
      return {mesh::Grid::make_2d(24, 16, 0.0, 1.0, 0.0, 1.0), {2, 2, 1}, 3};
    default:
      return {mesh::Grid(3, {12, 8, 8}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}),
              {1, 1, 1},
              2};
  }
}

using SrhdCombo = std::tuple<int, recon::Method, riemann::Solver>;

class RhsPipelineSrhd : public ::testing::TestWithParam<SrhdCombo> {};

TEST_P(RhsPipelineSrhd, BatchedMatchesPencilBitwise) {
  const auto [ndim, rm, rs] = GetParam();
  const Case c = make_case(ndim);
  solver::SrhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.physics.riemann = rs;
  opt.blocks = c.blocks;
  expect_matches_pencil<solver::SrhdSolver>(c.grid, opt, srhd_ic, c.nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RhsPipelineSrhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5),
        ::testing::Values(riemann::Solver::kLLF, riemann::Solver::kHLL,
                          riemann::Solver::kHLLC)));

using SrmhdCombo = std::tuple<int, recon::Method>;

class RhsPipelineSrmhd : public ::testing::TestWithParam<SrmhdCombo> {};

TEST_P(RhsPipelineSrmhd, BatchedMatchesPencilBitwise) {
  const auto [ndim, rm] = GetParam();
  const Case c = make_case(ndim);
  solver::SrmhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  expect_matches_pencil<solver::SrmhdSolver>(c.grid, opt, srmhd_ic,
                                             c.nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RhsPipelineSrmhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5)));

// Reflecting walls are the ghost fill the matrix above leaves out: mirrored
// ghosts with the normal velocity (and, for SRMHD, the normal field)
// negated, on every face of the grid.
TEST(RhsPipeline, ReflectingWallsBatchedMatchesPencilSrhd) {
  const Case c = make_case(2);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPPM;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kReflect);
  opt.physics.riemann = riemann::Solver::kHLLC;
  opt.blocks = c.blocks;
  expect_matches_pencil<solver::SrhdSolver>(c.grid, opt, srhd_ic, c.nsteps);
}

TEST(RhsPipeline, ReflectingWallsBatchedMatchesPencilSrmhd) {
  const Case c = make_case(3);
  solver::SrmhdSolver::Options opt;
  opt.recon = recon::Method::kWENO5;
  opt.cfl = 0.25;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kReflect);
  opt.blocks = c.blocks;
  expect_matches_pencil<solver::SrmhdSolver>(c.grid, opt, srmhd_ic,
                                             c.nsteps);
}

// Restricted-block construction (the distributed driver's per-rank view)
// must flow through the batched pipeline too. Both solvers own a single
// block covering the full grid and fill ghosts through the same manual
// physical-boundary filler; the oracle drives one of them.
TEST(RhsPipeline, RestrictedBlockBatchedMatchesPencil) {
  const mesh::Grid g = mesh::Grid::make_2d(20, 12, 0.0, 1.0, 0.0, 1.0);
  const mesh::BlockExtents sub{{0, 0, 0}, {20, 12, 1}};
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPPM;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.riemann = riemann::Solver::kHLL;

  auto make = [&] {
    auto s = std::make_unique<solver::SrhdSolver>(g, opt, sub);
    solver::SrhdSolver* raw = s.get();
    s->set_ghost_filler([raw](int) {
      auto& blk = raw->block(0);
      for (int axis = 0; axis < 2; ++axis) {
        for (int side = 0; side < 2; ++side) {
          const auto negate = solver::SrhdPhysics::reflect_negate_vars(axis);
          mesh::apply_physical_boundary(blk, axis, side,
                                        mesh::BcType::kOutflow, negate);
        }
      }
    });
    s->initialize(srhd_ic);
    return s;
  };

  auto ref = make();
  testsupport::PencilReference pencil(*ref);
  auto s = make();
  const double dt = pencil.compute_dt();
  EXPECT_EQ(dt, s->compute_dt());
  for (int n = 0; n < 3; ++n) {
    pencil.step(dt);
    s->step(dt);
  }
  EXPECT_EQ(
      count_bit_diffs(ref->block(0).cons().flat(), s->block(0).cons().flat()),
      0);
  EXPECT_EQ(
      count_bit_diffs(ref->block(0).prim().flat(), s->block(0).prim().flat()),
      0);
}

}  // namespace
