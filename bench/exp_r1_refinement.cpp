// Experiment R1 — mesh-refinement accuracy/cost trade (table).
// Sod tube at coarse resolution N, the same N with a 2x refined region
// covering the wave fan, and uniform 2N: L1 error (in the wave region,
// against the exact solution), wall time, and zone-update counts.
//
// Expected shape: refined error lands between uniform-N and uniform-2N
// at a cost well below uniform-2N (the region covers only part of the
// domain); conservation drift of the unrefluxed scheme stays at the
// truncation level.

#include "two_level.hpp"

#include "exp_common.hpp"

namespace {

using namespace rshc;

double region_l1(const std::function<srhd::Prim(long long)>& sample_cell,
                 const mesh::Grid& g, const problems::ShockTube& st,
                 long long lo, long long hi) {
  const analysis::ExactRiemann exact(
      {st.left.rho, st.left.vx, st.left.p},
      {st.right.rho, st.right.vx, st.right.p}, st.gamma);
  double sum = 0.0;
  for (long long i = lo; i < hi; ++i) {
    const double x = g.cell_center(0, i);
    sum += std::abs(sample_cell(i).rho -
                    exact.sample((x - st.x_split) / st.t_final).rho);
  }
  return sum / static_cast<double>(hi - lo);
}

}  // namespace

int main() {
  using namespace rshc;
  constexpr long long kN = 128;
  const problems::ShockTube st = problems::sod();
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kOutflow);
  opt.physics.eos = eos::IdealGas(st.gamma);

  // Wave-fan region in coarse indices (scaled for the 2N run).
  const long long lo = kN * 30 / 100;
  const long long hi = kN * 90 / 100;

  Table table({"configuration", "region_L1_rho", "seconds", "steps",
               "mass_drift"});
  table.set_title("R1: static 2x refinement vs uniform resolutions "
                  "(Sod, region = wave fan)");

  {
    const mesh::Grid g = mesh::Grid::make_1d(kN, 0.0, 1.0);
    solver::SrhdSolver s(g, opt);
    s.initialize(problems::shock_tube_ic(st));
    const double m0 = s.total_cons().d;
    WallTimer t;
    const int steps = s.advance_to(st.t_final);
    table.add_row({std::string("uniform N"),
                   region_l1([&](long long i) { return s.prim_at(i); }, g,
                             st, lo, hi),
                   t.seconds(), static_cast<long long>(steps),
                   std::abs(s.total_cons().d - m0) / m0});
  }
  {
    const mesh::Grid g = mesh::Grid::make_1d(kN, 0.0, 1.0);
    amr::TwoLevelSrhdSolver s(g, opt,
                              amr::RefineRegion{{lo, 0, 0}, {hi, 1, 1}});
    s.initialize(problems::shock_tube_ic(st));
    const double m0 = s.coarse().total_cons().d;
    WallTimer t;
    const int steps = s.advance_to(st.t_final);
    table.add_row(
        {std::string("refined region 2x"),
         region_l1([&](long long i) { return s.coarse().prim_at(i); }, g,
                   st, lo, hi),
         t.seconds(), static_cast<long long>(steps),
         std::abs(s.coarse().total_cons().d - m0) / m0});
  }
  {
    // Narrow refinement over the contact+shock only: most of the accuracy
    // at a fraction of the fine-region cost.
    const mesh::Grid g = mesh::Grid::make_1d(kN, 0.0, 1.0);
    amr::TwoLevelSrhdSolver s(
        g, opt,
        amr::RefineRegion{{kN * 55 / 100, 0, 0}, {kN * 95 / 100, 1, 1}});
    s.initialize(problems::shock_tube_ic(st));
    const double m0 = s.coarse().total_cons().d;
    WallTimer t;
    const int steps = s.advance_to(st.t_final);
    table.add_row(
        {std::string("refined shock-only"),
         region_l1([&](long long i) { return s.coarse().prim_at(i); }, g,
                   st, lo, hi),
         t.seconds(), static_cast<long long>(steps),
         std::abs(s.coarse().total_cons().d - m0) / m0});
  }
  {
    const mesh::Grid g = mesh::Grid::make_1d(2 * kN, 0.0, 1.0);
    solver::SrhdSolver s(g, opt);
    s.initialize(problems::shock_tube_ic(st));
    const double m0 = s.total_cons().d;
    WallTimer t;
    const int steps = s.advance_to(st.t_final);
    // Sample the 2N run at the coarse-cell centers (pairs average).
    auto sample = [&](long long ci) {
      const auto a = s.prim_at(2 * ci);
      const auto b = s.prim_at(2 * ci + 1);
      srhd::Prim p;
      p.rho = 0.5 * (a.rho + b.rho);
      return p;
    };
    table.add_row({std::string("uniform 2N"),
                   region_l1(sample, mesh::Grid::make_1d(kN, 0.0, 1.0), st,
                             lo, hi),
                   t.seconds(), static_cast<long long>(steps),
                   std::abs(s.total_cons().d - m0) / m0});
  }
  bench::emit(table, "r1_refinement");
  return 0;
}
