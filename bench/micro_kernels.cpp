// B1 — google-benchmark microbenchmarks of the hot per-zone kernels:
// reconstruction variants, Riemann solvers, prim<->cons maps, the GLM
// interface flux, the RK combination kernel, and the solver rhs phase on
// the host pipeline.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "rshc/problems/problems.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/con2prim.hpp"
#include "rshc/srhd/kernels.hpp"
#include "rshc/srmhd/con2prim.hpp"

namespace {

using namespace rshc;

const eos::IdealGas kEos(5.0 / 3.0);

std::vector<double> random_pencil(std::size_t n, unsigned seed = 3) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.5, 2.0);
  std::vector<double> q(n);
  for (auto& x : q) x = u(rng);
  return q;
}

void BM_Reconstruct(benchmark::State& state) {
  const auto method = static_cast<recon::Method>(state.range(0));
  const std::size_t n = 256;
  const auto q = random_pencil(n);
  std::vector<double> ql(n), qr(n);
  for (auto _ : state) {
    recon::reconstruct(method, q, ql, qr);
    benchmark::DoNotOptimize(ql.data());
    benchmark::DoNotOptimize(qr.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(std::string(recon::method_name(method)));
}
BENCHMARK(BM_Reconstruct)
    ->Arg(static_cast<int>(recon::Method::kPCM))
    ->Arg(static_cast<int>(recon::Method::kPLMMC))
    ->Arg(static_cast<int>(recon::Method::kPPM))
    ->Arg(static_cast<int>(recon::Method::kWENO5));

void BM_RiemannSrhd(benchmark::State& state) {
  const auto solver = static_cast<riemann::Solver>(state.range(0));
  const srhd::Prim wl{1.0, 0.2, 0.1, 0.0, 1.0};
  const srhd::Prim wr{0.5, -0.3, 0.0, 0.0, 0.2};
  for (auto _ : state) {
    auto f = riemann::solve_srhd(solver, wl, wr, 0, kEos);
    benchmark::DoNotOptimize(f);
  }
  state.SetLabel(std::string(riemann::solver_name(solver)));
}
BENCHMARK(BM_RiemannSrhd)
    ->Arg(static_cast<int>(riemann::Solver::kLLF))
    ->Arg(static_cast<int>(riemann::Solver::kHLL))
    ->Arg(static_cast<int>(riemann::Solver::kHLLC));

void BM_RiemannSrmhdHll(benchmark::State& state) {
  srmhd::Prim wl;
  wl.rho = 1.0; wl.vx = 0.2; wl.p = 1.0; wl.bx = 0.5; wl.by = 0.3;
  srmhd::Prim wr;
  wr.rho = 0.5; wr.vx = -0.1; wr.p = 0.4; wr.bx = 0.5; wr.by = -0.2;
  const srmhd::GlmParams glm;
  for (auto _ : state) {
    auto f = riemann::solve_srmhd_hll(wl, wr, 0, kEos, glm);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_RiemannSrmhdHll);

void BM_Con2PrimSrhd(benchmark::State& state) {
  // Lorentz factor from the benchmark argument (1..50).
  const double W = static_cast<double>(state.range(0));
  const double v = std::sqrt(1.0 - 1.0 / (W * W));
  const srhd::Prim w{1.0, 0.8 * v, 0.6 * v, 0.0, 0.5};
  const srhd::Cons u = srhd::prim_to_cons(w, kEos);
  for (auto _ : state) {
    auto r = srhd::cons_to_prim(u, kEos);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Con2PrimSrhd)->Arg(1)->Arg(2)->Arg(10)->Arg(50);

void BM_Con2PrimSrmhd(benchmark::State& state) {
  srmhd::Prim w;
  w.rho = 1.0; w.vx = 0.5; w.vy = 0.3; w.p = 0.5;
  w.bx = 0.6; w.by = -0.7; w.bz = 0.2;
  const srmhd::Cons u = srmhd::prim_to_cons(w, kEos);
  for (auto _ : state) {
    auto r = srmhd::cons_to_prim(u, kEos);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Con2PrimSrmhd);

void BM_PrimToConsBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto rho = random_pencil(n, 1);
  const auto p = random_pencil(n, 2);
  std::vector<double> vx(n, 0.3), vy(n, -0.2), vz(n, 0.1);
  std::vector<double> d(n), sx(n), sy(n), sz(n), tau(n);
  const bool simd = state.range(1) != 0;
  for (auto _ : state) {
    if (simd) {
      srhd::kernels::simd::prim_to_cons_n(n, rho.data(), vx.data(),
                                          vy.data(), vz.data(), p.data(),
                                          d.data(), sx.data(), sy.data(),
                                          sz.data(), tau.data(), 5.0 / 3.0);
    } else {
      srhd::kernels::scalar::prim_to_cons_n(n, rho.data(), vx.data(),
                                            vy.data(), vz.data(), p.data(),
                                            d.data(), sx.data(), sy.data(),
                                            sz.data(), tau.data(),
                                            5.0 / 3.0);
    }
    benchmark::DoNotOptimize(tau.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_PrimToConsBatch)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

void BM_Axpby(benchmark::State& state) {
  const std::size_t n = 65536;
  const auto x = random_pencil(n);
  std::vector<double> y(n, 1.0);
  for (auto _ : state) {
    srhd::kernels::simd::axpby_n(n, 0.5, x.data(), 0.5, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n * 16);
}
BENCHMARK(BM_Axpby);

void BM_ReconstructRows(benchmark::State& state) {
  // One tile of PLM-MC rows through the batched entry point: one method
  // switch per call, then the scheme's lane loop over every row.
  const std::size_t rows = 32;
  const std::size_t n = 256;
  const auto q = random_pencil(rows * n);
  std::vector<double> ql(rows * n);
  std::vector<double> qr(rows * n);
  for (auto _ : state) {
    recon::reconstruct_rows(recon::Method::kPLMMC, rows, n, q.data(), n,
                            ql.data(), qr.data(), n);
    benchmark::DoNotOptimize(ql.data());
    benchmark::DoNotOptimize(qr.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * n));
}
BENCHMARK(BM_ReconstructRows);

void BM_SolverRhs(benchmark::State& state) {
  // Whole rhs phase (reconstruction + Riemann + flux differencing) on the
  // 2D KH workload the perf suite tracks, on the host pipeline.
  const long long n = 64;
  const mesh::Grid grid = mesh::Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  solver::SrhdSolver s(grid, opt);
  s.initialize(problems::kelvin_helmholtz_ic({}));
  for (auto _ : state) {
    s.compute_rhs_all();
    benchmark::DoNotOptimize(&s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          grid.num_cells());
}
BENCHMARK(BM_SolverRhs);

void BM_GlmInterfaceFlux(benchmark::State& state) {
  for (auto _ : state) {
    auto f = srmhd::glm_interface_flux(0.4, 0.1, 0.2, -0.05, 1.0);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_GlmInterfaceFlux);

}  // namespace

BENCHMARK_MAIN();
