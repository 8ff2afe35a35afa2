// Experiment F3 — strong scaling (figure).
// Fixed 128^2 problem split into 4x4 blocks; worker count sweeps 1..8 for
// both schedules of the step graph (bulk-synchronous barrier nodes vs
// futurized dataflow).
//
// Expected shape (on a many-core host): time/step drops with workers,
// dataflow >= bulk-sync throughput with the gap widening as barriers
// dominate. NOTE: this machine exposes a single hardware core, so the
// measured "scaling" here is flat-to-negative by construction — the
// harness is the deliverable; EXPERIMENTS.md discusses the substitution.

#include "rshc/parallel/thread_pool.hpp"

#include "exp_common.hpp"

int main() {
  using namespace rshc;
  constexpr long long kN = 128;
  constexpr int kSteps = 8;
  const std::vector<unsigned> workers = {1, 2, 4, 8};

  const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
  solver::SrhdSolver::Options opt;
  opt.recon = recon::Method::kPLMMC;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  opt.blocks = {4, 4, 1};
  const double dt = 0.1 / static_cast<double>(kN);

  Table table({"mode", "workers", "sec_per_step", "speedup", "efficiency",
               "Mzone_updates_per_s"});
  table.set_title("F3: strong scaling, 128^2 in 4x4 blocks "
                  "(host has 1 hardware core; see EXPERIMENTS.md)");

  const double zones_per_step = static_cast<double>(kN * kN) * 3.0;  // RK3
  for (const auto schedule :
       {solver::Schedule::kBulkSync, solver::Schedule::kDataflow}) {
    const bool dataflow = schedule == solver::Schedule::kDataflow;
    double t1 = 0.0;
    for (const unsigned w : workers) {
      solver::SrhdSolver s(grid, opt);
      s.initialize(problems::kelvin_helmholtz_ic({}));
      parallel::ThreadPool pool(w);
      // Warm-up step excluded from timing.
      s.run_steps(1, dt, pool, schedule);
      WallTimer t;
      s.run_steps(kSteps, dt, pool, schedule);
      const double per_step = t.seconds() / kSteps;
      if (w == 1) t1 = per_step;
      table.add_row({std::string(dataflow ? "dataflow" : "bulk-sync"),
                     static_cast<long long>(w), per_step, t1 / per_step,
                     t1 / per_step / w,
                     zones_per_step / per_step / 1e6});
    }
  }
  bench::emit(table, "f3_strong_scaling");
  return 0;
}
