// Adaptive mesh refinement tracking a relativistic blast wave.
//
//   ./examples/refinement/amr_shock_tracking [N=256] [interval=5]
//                                            [threshold=0.05]
//
// Runs the MM1 blast on a coarse grid with a 2x refined region that
// re-centers itself on the steep-gradient cells every few steps, printing
// the region's trajectory as it chases the shock, and the final accuracy
// against the exact solution compared to an unrefined run.

#include <cstdio>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/analysis/norms.hpp"
#include "rshc/common/config.hpp"
#include "rshc/problems/problems.hpp"

#include "two_level.hpp"

int main(int argc, char** argv) {
  using namespace rshc;
  const Config cfg = Config::from_args(argc, argv);
  const long long n = cfg.get_int("N", 256);
  const int interval = static_cast<int>(cfg.get_int("interval", 5));
  const double threshold = cfg.get_double("threshold", 0.05);

  const problems::ShockTube st = problems::marti_muller_1();
  const mesh::Grid grid = mesh::Grid::make_1d(n, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);
  opt.physics.riemann = riemann::Solver::kHLLC;

  // Start the region centered on the membrane; adaptivity takes it from
  // there.
  amr::TwoLevelSrhdSolver s(
      grid, opt,
      amr::RefineRegion{{n * 40 / 100, 0, 0}, {n * 60 / 100, 1, 1}});
  s.enable_adaptivity(interval, threshold, /*padding=*/4);
  s.initialize(problems::shock_tube_ic(st));

  std::printf("# %s with adaptive 2x refinement, N=%lld, regrid every %d "
              "steps at threshold %.2f\n",
              st.name.c_str(), n, interval, threshold);
  std::printf("%-8s %-12s %-12s %-10s\n", "t", "region_lo", "region_hi",
              "fine_cells");
  double next_report = 0.0;
  while (s.time() < st.t_final) {
    if (s.time() >= next_report) {
      std::printf("%-8.3f %-12.4f %-12.4f %-10lld\n", s.time(),
                  static_cast<double>(s.region().lo[0]) / n,
                  static_cast<double>(s.region().hi[0]) / n,
                  s.fine().grid().extent(0));
      next_report += st.t_final / 12.0;
    }
    double dt = s.compute_dt();
    if (s.time() + dt > st.t_final) dt = st.t_final - s.time();
    s.step(dt);
  }

  // Accuracy vs an unrefined run, both against the exact solution.
  solver::SrhdSolver plain(grid, opt);
  plain.initialize(problems::shock_tube_ic(st));
  plain.advance_to(st.t_final);

  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  auto l1 = [&](solver::SrhdSolver& sv) {
    const auto rho = sv.gather_prim_var(srhd::kRho);
    std::vector<double> ref(rho.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = exact
                   .sample((grid.cell_center(0, static_cast<long long>(i)) -
                            st.x_split) /
                           st.t_final)
                   .rho;
    }
    return analysis::l1_error(rho, ref);
  };
  std::printf("\nL1(rho): unrefined = %.5e, adaptive-AMR composite = %.5e\n",
              l1(plain), l1(s.coarse()));
  std::printf("final refined region: [%.3f, %.3f)\n",
              static_cast<double>(s.region().lo[0]) / n,
              static_cast<double>(s.region().hi[0]) / n);
  return 0;
}
