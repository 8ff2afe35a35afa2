// Device-offload vs per-pencil reference: HostPipeline::kDevice routes the
// full rhs / RK update / con2prim / CFL path through device::Device with
// persistent per-block arenas (DESIGN.md systems #4/#12), and promises
// *bitwise* identical states to the per-pencil oracle
// (support/pencil_reference.hpp) — the kernels are the same compiled
// rhs_core bodies the host pipeline calls. This suite pins that promise
// across every
// reconstruction scheme, Riemann solver, physics system, and
// dimensionality, plus the restricted-block constructor, run_steps on a
// pool (the same step graph as step(), bitwise equal to host steps), and
// multi-step residency (only halo-sized payloads may cross the boundary
// after step 0, asserted via the obs byte counters, on step() and on
// run_steps()).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "rshc/mesh/halo.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "support/pencil_reference.hpp"

namespace {

using namespace rshc;

constexpr double kPi = 3.14159265358979323846;

/// Zero-cost accelerator model: no modeled latency / launch overhead, so
/// the suite exercises the full staging + stream-fencing machinery at
/// real-kernel speed.
device::AccelModel zero_cost() {
  return {0.0, std::numeric_limits<double>::infinity(), 0.0};
}

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

/// Run `nsteps` fixed-dt steps under the per-pencil oracle and under the
/// device pipeline, then require bitwise-equal cons and prim fields on
/// every block, identical dt from both the host and the device-resident
/// CFL scan, and identical con2prim health counters.
template <typename Solver, typename Ic>
void expect_device_matches_pencil(const mesh::Grid& g,
                                  typename Solver::Options opt, const Ic& ic,
                                  int nsteps) {
  Solver ref(g, opt);
  ref.initialize(ic);
  testsupport::PencilReference pencil(ref);
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  Solver s(g, opt);
  s.initialize(ic);

  const double dt = pencil.compute_dt();
  // Pre-residency the device solver computes dt on the host mirror.
  EXPECT_EQ(dt, s.compute_dt()) << "pre-residency compute_dt drifted";
  for (int n = 0; n < nsteps; ++n) {
    pencil.step(dt);
    s.step(dt);
  }
  ASSERT_TRUE(s.device_resident());
  // Post-step the device solver computes dt with its device-side CFL
  // kernel against the resident state.
  EXPECT_EQ(pencil.compute_dt(), s.compute_dt())
      << "device-resident compute_dt drifted";

  s.sync_from_device();
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

/// SRHD workload with structure along every active axis (same as
/// test_rhs_pipeline, so the two suites pin the same dynamics).
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

/// Grid + step count per dimensionality (small but multi-block in 1D/2D,
/// so the halo staging crosses real sibling boundaries).
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

class DevicePipelineSrhd : public ::testing::TestWithParam<SrhdCombo> {};

TEST_P(DevicePipelineSrhd, DeviceMatchesPencilBitwise) {
  const auto [ndim, rm, rs] = GetParam();
  const Case c = make_case(ndim);
  solver::SrhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.3;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.physics.riemann = rs;
  opt.blocks = c.blocks;
  expect_device_matches_pencil<solver::SrhdSolver>(c.grid, opt, srhd_ic,
                                                   c.nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DevicePipelineSrhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5),
        ::testing::Values(riemann::Solver::kLLF, riemann::Solver::kHLL,
                          riemann::Solver::kHLLC)));

using SrmhdCombo = std::tuple<int, recon::Method>;

class DevicePipelineSrmhd : public ::testing::TestWithParam<SrmhdCombo> {};

TEST_P(DevicePipelineSrmhd, DeviceMatchesPencilBitwise) {
  const auto [ndim, rm] = GetParam();
  const Case c = make_case(ndim);
  solver::SrmhdSolver::Options opt;
  opt.recon = rm;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = c.blocks;
  expect_device_matches_pencil<solver::SrmhdSolver>(c.grid, opt, srmhd_ic,
                                                    c.nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DevicePipelineSrmhd,
    ::testing::Combine(
        ::testing::Values(1, 2, 3),
        ::testing::Values(recon::Method::kPCM, recon::Method::kPLMMinmod,
                          recon::Method::kPLMMC, recon::Method::kPLMVanLeer,
                          recon::Method::kPPM, recon::Method::kWENO5)));

// Restricted-block construction (the distributed driver's per-rank view)
// must flow through the device pipeline too: the custom ghost filler runs
// against the host mirror between the rim download and the ghost upload.
TEST(DevicePipeline, RestrictedBlockDeviceMatchesPencil) {
  const mesh::Grid g = mesh::Grid::make_2d(20, 12, 0.0, 1.0, 0.0, 1.0);
  const mesh::BlockExtents sub{{0, 0, 0}, {20, 12, 1}};
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPPM;
  opt.cfl = 0.3;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.riemann = riemann::Solver::kHLL;

  auto make = [&](solver::HostPipeline p) {
    opt.pipeline = p;
    opt.accel = zero_cost();
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

  auto ref = make(solver::HostPipeline::kBatchedSimd);
  testsupport::PencilReference pencil(*ref);
  auto s = make(solver::HostPipeline::kDevice);
  const double dt = pencil.compute_dt();
  EXPECT_EQ(dt, s->compute_dt());
  for (int n = 0; n < 3; ++n) {
    pencil.step(dt);
    s->step(dt);
  }
  s->sync_from_device();
  EXPECT_EQ(
      count_bit_diffs(ref->block(0).cons().flat(), s->block(0).cons().flat()),
      0);
  EXPECT_EQ(
      count_bit_diffs(ref->block(0).prim().flat(), s->block(0).prim().flat()),
      0);
}

/// The device pipeline under run_steps: the same step graph as step(),
/// with its E and K nodes on pool workers submitting concurrently to one
/// device. `nsteps` steps under `schedule`, then one sync_from_device(),
/// must reproduce `nsteps` host-pipeline step() calls bit for bit, cons and
/// prims of every block, with the same con2prim counters.
template <typename Solver, typename Ic>
void expect_pool_device_matches_host_steps(const mesh::Grid& g,
                                           typename Solver::Options opt,
                                           const Ic& ic,
                                           solver::Schedule schedule) {
  constexpr int kSteps = 3;
  Solver host(g, opt);
  host.initialize(ic);
  const double dt = host.compute_dt();
  for (int n = 0; n < kSteps; ++n) host.step(dt);

  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  Solver dev(g, opt);
  dev.initialize(ic);
  parallel::ThreadPool pool(3);
  dev.run_steps(kSteps, dt, pool, schedule);
  ASSERT_TRUE(dev.device_resident());
  dev.sync_from_device();

  EXPECT_EQ(dev.steps_taken(), host.steps_taken());
  EXPECT_EQ(dev.time(), host.time());
  EXPECT_EQ(dev.c2p_stats().total_iterations,
            host.c2p_stats().total_iterations);
  EXPECT_EQ(dev.c2p_stats().floored_zones, host.c2p_stats().floored_zones);
  ASSERT_EQ(dev.num_blocks(), host.num_blocks());
  for (int b = 0; b < host.num_blocks(); ++b) {
    for (const bool cons : {true, false}) {
      const auto x = cons ? host.block(b).cons().flat()
                          : host.block(b).prim().flat();
      const auto y =
          cons ? dev.block(b).cons().flat() : dev.block(b).prim().flat();
      ASSERT_EQ(x.size(), y.size());
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)), 0)
          << "block " << b << (cons ? " cons" : " prim");
    }
  }
}

/// (SRMHD with GLM cleaning?, run_steps schedule).
using GraphCombo = std::tuple<bool, solver::Schedule>;

class DevicePipelineRunSteps : public ::testing::TestWithParam<GraphCombo> {};

TEST_P(DevicePipelineRunSteps, PoolGraphMatchesHostStepsBitwise) {
  const auto [mhd, schedule] = GetParam();
  const mesh::Grid g = mesh::Grid::make_2d(24, 16, 0.0, 1.0, 0.0, 1.0);
  const mesh::BoundarySpec bc{{mesh::BcType::kOutflow, mesh::BcType::kPeriodic,
                               mesh::BcType::kPeriodic}};
  if (mhd) {
    solver::SrmhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.cfl = 0.25;
    opt.bc = bc;
    opt.blocks = {2, 2, 1};
    opt.physics.glm.enabled = true;
    expect_pool_device_matches_host_steps<solver::SrmhdSolver>(g, opt,
                                                               srmhd_ic,
                                                               schedule);
  } else {
    solver::SrhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.cfl = 0.3;
    opt.bc = bc;
    opt.blocks = {2, 2, 1};
    opt.physics.riemann = riemann::Solver::kHLLC;
    expect_pool_device_matches_host_steps<solver::SrhdSolver>(g, opt, srhd_ic,
                                                              schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SrhdAndSrmhd, DevicePipelineRunSteps,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(solver::Schedule::kDataflow,
                                         solver::Schedule::kBulkSync)),
    [](const ::testing::TestParamInfo<GraphCombo>& info) {
      return std::string(std::get<0>(info.param) ? "Srmhd" : "Srhd") +
             (std::get<1>(info.param) == solver::Schedule::kBulkSync
                  ? "BulkSync"
                  : "Dataflow");
    });

// The modeled link sits on the device pipeline's critical path: the host
// waits for every block's rim download each RK stage before it fills
// ghosts, so with 1 ms of modeled latency a step cannot finish in under
// stages x 1 ms. The cost model changes timing only — the state stays
// bitwise equal to a zero-cost run.
TEST(DevicePipeline, ModeledTransferLatencyIsPaidPerStage) {
  const Case c = make_case(2);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  opt.blocks = c.blocks;
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  solver::SrhdSolver fast(c.grid, opt);
  fast.initialize(srhd_ic);
  opt.accel.transfer_latency_sec = 1e-3;
  solver::SrhdSolver slow(c.grid, opt);
  slow.initialize(srhd_ic);

  const double dt = fast.compute_dt();
  fast.step(dt);
  slow.step(dt);  // includes the one-off residency upload
  fast.step(dt);
  const auto t0 = std::chrono::steady_clock::now();
  slow.step(dt);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double stages = time::num_stages(opt.integrator);
  EXPECT_GE(seconds, stages * opt.accel.transfer_latency_sec)
      << "a device step finished faster than its modeled rim downloads";

  fast.sync_from_device();
  slow.sync_from_device();
  for (int b = 0; b < fast.num_blocks(); ++b) {
    EXPECT_EQ(count_bit_diffs(fast.block(b).cons().flat(),
                              slow.block(b).cons().flat()),
              0);
    EXPECT_EQ(count_bit_diffs(fast.block(b).prim().flat(),
                              slow.block(b).prim().flat()),
              0);
  }
}

// The device stages a block's interior conservatives through its modeled
// link, runs the batched con2prim core in a launched kernel and hands back
// the solver's own primitives bit for bit.
TEST(DevicePipeline, BatchedConsToPrimRecoversSolverPrims) {
  using Physics = solver::SrhdPhysics;
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.3;
  solver::SrhdSolver s(mesh::Grid::make_2d(16, 16, 0.0, 1.0, 0.0, 1.0), opt);
  s.initialize(srhd_ic);
  for (int n = 0; n < 3; ++n) s.step(s.compute_dt());
  ASSERT_EQ(s.c2p_stats().floored_zones, 0);

  const mesh::Block& blk = s.block(0);
  std::array<std::vector<double>, Physics::kNumCons> u_host;
  std::array<std::vector<double>, Physics::kNumPrim> w_ref;
  for (int k = blk.begin(2); k < blk.end(2); ++k) {
    for (int j = blk.begin(1); j < blk.end(1); ++j) {
      for (int i = blk.begin(0); i < blk.end(0); ++i) {
        for (int v = 0; v < Physics::kNumCons; ++v) {
          u_host[static_cast<std::size_t>(v)].push_back(
              blk.cons()(v, k, j, i));
        }
        for (int v = 0; v < Physics::kNumPrim; ++v) {
          w_ref[static_cast<std::size_t>(v)].push_back(
              blk.prim()(v, k, j, i));
        }
      }
    }
  }
  const std::size_t n = u_host[0].size();
  ASSERT_EQ(n, 16u * 16u);

  device::Device dev(zero_cost());
  std::array<device::Buffer, Physics::kNumCons> u_buf;
  std::array<device::Buffer, Physics::kNumPrim> w_buf;
  for (int v = 0; v < Physics::kNumCons; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    u_buf[sv] = dev.alloc(n);
    dev.upload_async(u_host[sv], u_buf[sv]);
  }
  for (auto& b : w_buf) b = dev.alloc(n);
  solver::C2PStats stats;
  const Physics::Context ctx = s.options().physics;
  dev.launch(
      [&] {
        std::array<const double*, Physics::kNumCons> u{};
        std::array<double*, Physics::kNumPrim> w{};
        for (std::size_t v = 0; v < u.size(); ++v) {
          u[v] = u_buf[v].device_view().data();
        }
        for (std::size_t v = 0; v < w.size(); ++v) {
          w[v] = w_buf[v].device_view().data();
        }
        Physics::cons_to_prim_n(n, u.data(), w.data(), ctx, stats);
      },
      n);
  std::array<std::vector<double>, Physics::kNumPrim> w_dev;
  for (std::size_t v = 0; v < w_dev.size(); ++v) {
    w_dev[v].resize(n);
    dev.download_async(w_buf[v], w_dev[v]);
  }
  dev.synchronize();

  EXPECT_EQ(stats.floored_zones, 0);
  EXPECT_GT(stats.total_iterations, 0);
  for (std::size_t v = 0; v < w_dev.size(); ++v) {
    EXPECT_EQ(count_bit_diffs(w_ref[v], w_dev[v]), 0) << "prim var " << v;
  }
}

#if RSHC_OBS_ENABLED
/// Expected D2H bytes per RK stage: every block's interior rims come down
/// — exactly 2 * halo_buffer_size(b, axis) doubles per active axis (the
/// same region the sibling halo exchange reads).
template <typename Solver>
std::int64_t rim_bytes_per_stage(const Solver& s) {
  std::int64_t doubles = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto& blk = s.block(b);
    for (int axis = 0; axis < s.grid().ndim(); ++axis) {
      doubles +=
          2 * static_cast<std::int64_t>(mesh::halo_buffer_size(blk, axis));
    }
  }
  return doubles * static_cast<std::int64_t>(sizeof(double));
}

/// Expected H2D bytes per RK stage: every block's freshly filled ghost
/// shells go back up with *full* transverse extent (physical boundaries
/// fill corner ghosts, so the shells are wider than the rims).
template <typename Solver>
std::int64_t ghost_bytes_per_stage(const Solver& s) {
  std::int64_t doubles = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    const auto& blk = s.block(b);
    for (int axis = 0; axis < s.grid().ndim(); ++axis) {
      std::int64_t shell = static_cast<std::int64_t>(blk.prim().nvar()) *
                           static_cast<std::int64_t>(blk.ghost(axis));
      for (int a = 0; a < 3; ++a) {
        if (a != axis) shell *= static_cast<std::int64_t>(blk.total(a));
      }
      doubles += 2 * shell;
    }
  }
  return doubles * static_cast<std::int64_t>(sizeof(double));
}

/// Multi-step residency accounting: after the step-0 full upload, a device
/// step moves *exactly* nstages halo payloads in each direction — nothing
/// else may cross the boundary, whether the step graph runs inline
/// (step()) or on a pool (run_steps(), both schedules). Pinned for both
/// physics systems via the device's obs byte counters.
template <typename Solver, typename Ic>
void expect_halo_only_traffic(const Ic& ic) {
  if (!obs::enabled()) GTEST_SKIP() << "obs disabled at runtime (RSHC_OBS=0)";
  typename Solver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kPeriodic, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = {2, 2, 1};
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  Solver s(mesh::Grid::make_2d(24, 16, 0.0, 1.0, 0.0, 1.0), opt);
  s.initialize(ic);
  const double dt = s.compute_dt();  // pre-residency: host scan, no traffic

  auto& h2d = obs::Registry::global().counter("device.h2d.bytes");
  auto& d2h = obs::Registry::global().counter("device.d2h.bytes");

  s.step(dt);  // step 0: full residency upload + per-stage halo traffic
  const std::int64_t up_stage = ghost_bytes_per_stage(s);
  const std::int64_t down_stage = rim_bytes_per_stage(s);
  const std::int64_t stages = time::num_stages(opt.integrator);
  for (int n = 1; n <= 2; ++n) {
    const std::int64_t h2d0 = h2d.total();
    const std::int64_t d2h0 = d2h.total();
    s.step(dt);
    EXPECT_EQ(h2d.total() - h2d0, stages * up_stage)
        << "step " << n << " uploaded more than its ghost shells";
    EXPECT_EQ(d2h.total() - d2h0, stages * down_stage)
        << "step " << n << " downloaded more than its rims";
  }
  // The same graph on the pool moves the same bytes per step.
  parallel::ThreadPool pool(3);
  for (const auto schedule :
       {solver::Schedule::kDataflow, solver::Schedule::kBulkSync}) {
    const std::int64_t h2d0 = h2d.total();
    const std::int64_t d2h0 = d2h.total();
    s.run_steps(2, dt, pool, schedule);
    const bool bulk = schedule == solver::Schedule::kBulkSync;
    EXPECT_EQ(h2d.total() - h2d0, 2 * stages * up_stage)
        << "run_steps uploaded more than its ghost shells, bulk-sync=" << bulk;
    EXPECT_EQ(d2h.total() - d2h0, 2 * stages * down_stage)
        << "run_steps downloaded more than its rims, bulk-sync=" << bulk;
  }
}

TEST(DevicePipeline, HaloOnlyTransfersAfterFirstStepSrhd) {
  expect_halo_only_traffic<solver::SrhdSolver>(srhd_ic);
}

TEST(DevicePipeline, HaloOnlyTransfersAfterFirstStepSrmhd) {
  expect_halo_only_traffic<solver::SrmhdSolver>(srmhd_ic);
}

// The step-0 residency upload must be the *full* state (cons + prim of
// every ghosted cell) plus the stage halo traffic — and only once: a
// second device run of the same solver object re-uses the arenas.
TEST(DevicePipeline, ResidencyUploadIsFullStateOnce) {
  if (!obs::enabled()) GTEST_SKIP() << "obs disabled at runtime (RSHC_OBS=0)";
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.25;
  opt.bc.type = {mesh::BcType::kPeriodic, mesh::BcType::kPeriodic,
                 mesh::BcType::kPeriodic};
  opt.blocks = {2, 1, 1};
  opt.pipeline = solver::HostPipeline::kDevice;
  opt.accel = zero_cost();
  solver::SrhdSolver s(mesh::Grid::make_1d(64, 0.0, 1.0), opt);
  s.initialize(srhd_ic);
  const double dt = s.compute_dt();

  std::int64_t full_state = 0;
  for (int b = 0; b < s.num_blocks(); ++b) {
    full_state += static_cast<std::int64_t>(s.block(b).cons().size() +
                                            s.block(b).prim().size()) *
                  static_cast<std::int64_t>(sizeof(double));
  }
  auto& h2d = obs::Registry::global().counter("device.h2d.bytes");
  const std::int64_t h2d0 = h2d.total();
  s.step(dt);
  const std::int64_t stages = time::num_stages(opt.integrator);
  EXPECT_EQ(h2d.total() - h2d0,
            full_state + stages * ghost_bytes_per_stage(s));
}
#endif  // RSHC_OBS_ENABLED

}  // namespace
