// Experiment F9 — per-phase cost breakdown (figure/table).
// Where does a step's wall time go? Exchange (halos + BCs), RHS
// (reconstruction + Riemann + flux differencing), update (RK + con2prim),
// and bookkeeping — per reconstruction scheme and per physics system.
//
// Expected shape: RHS dominates everywhere and grows with reconstruction
// order (WENO5 >> PCM); SRMHD pays more in both RHS (9 variables, GLM)
// and update (1D-W con2prim); exchange stays a few percent at this
// surface-to-volume ratio.

#include "exp_common.hpp"

namespace {

/// Phase seconds for one measured run, read back from the obs registry
/// (the update column folds in con2prim, which the solver times as its
/// own "solver.phase.c2p" histogram).
struct RegistryPhases {
  double exchange = 0.0;
  double rhs = 0.0;
  double update = 0.0;
  double other = 0.0;
  [[nodiscard]] double total() const {
    return exchange + rhs + update + other;
  }
};

RegistryPhases read_registry_phases() {
  const auto snap = rshc::obs::Registry::global().snapshot();
  RegistryPhases p;
  p.exchange = snap.value_or("solver.phase.exchange");
  p.rhs = snap.value_or("solver.phase.rhs");
  p.update = snap.value_or("solver.phase.update") +
             snap.value_or("solver.phase.c2p");
  p.other = snap.value_or("solver.phase.other");
  return p;
}

/// Run the measured loop and report its phase split from the registry.
template <typename Solver>
RegistryPhases measure_phases(Solver& s, int nsteps) {
  s.step(s.compute_dt());  // warm-up outside the measurement
  rshc::obs::Registry::global().reset();
  for (int i = 0; i < nsteps; ++i) s.step(s.compute_dt());
  return read_registry_phases();
}

}  // namespace

int main() {
  using namespace rshc;
  if (!RSHC_OBS_ENABLED || !obs::enabled()) {
    std::cerr << "F9: the phase breakdown is read from the obs metrics "
                 "registry, which "
              << (RSHC_OBS_ENABLED ? "is disabled at runtime (RSHC_OBS=0)"
                                   : "is compiled out (RSHC_OBS=OFF)")
              << "; nothing to report\n";
    return 1;
  }
  constexpr long long kN = 96;
  constexpr int kSteps = 10;

  Table table({"system", "recon", "exchange_pct", "rhs_pct", "update_pct",
               "other_pct", "sec_per_step"});
  table.set_title("F9: per-phase wall-time breakdown (96^2, 10 steps)");

  auto add_row = [&](const std::string& system, const std::string& rname,
                     const auto& phases) {
    const double total = phases.total();
    table.add_row({system, rname, 100.0 * phases.exchange / total,
                   100.0 * phases.rhs / total,
                   100.0 * phases.update / total,
                   100.0 * phases.other / total, total / kSteps});
  };

  for (const auto rm : {recon::Method::kPCM, recon::Method::kPLMMC,
                        recon::Method::kWENO5}) {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::SrhdSolver::Options opt;
    opt.recon = rm;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    solver::SrhdSolver s(grid, opt);
    s.initialize(problems::kelvin_helmholtz_ic({}));
    add_row("srhd", std::string(recon::method_name(rm)),
            measure_phases(s, kSteps));
  }

  {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::SrmhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.cfl = 0.3;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(5.0 / 3.0);
    solver::SrmhdSolver s(grid, opt);
    s.initialize(problems::field_loop_ic({}));
    add_row("srmhd", "plm-mc", measure_phases(s, kSteps));
  }

  bench::emit(table, "f9_phase_breakdown");
  return 0;
}
