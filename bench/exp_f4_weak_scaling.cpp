// Experiment F4 — weak scaling (figure).
// 64x64 zones *per worker*: the grid grows with the worker count, so
// perfect weak scaling keeps time/step constant.
//
// Expected shape (many-core host): near-flat time/step; on this 1-core
// machine time/step instead grows linearly with workers, which is the
// correct oversubscribed limit and is called out in EXPERIMENTS.md.

#include "rshc/parallel/thread_pool.hpp"

#include "exp_common.hpp"

int main() {
  using namespace rshc;
  constexpr long long kPerWorker = 64;
  constexpr int kSteps = 8;
  const std::vector<unsigned> workers = {1, 2, 4};

  Table table({"mode", "workers", "grid", "sec_per_step",
               "weak_efficiency", "Mzone_updates_per_s"});
  table.set_title("F4: weak scaling, 64^2 zones per worker "
                  "(1-core host; see EXPERIMENTS.md)");

  for (const auto schedule :
       {solver::Schedule::kBulkSync, solver::Schedule::kDataflow}) {
    const bool dataflow = schedule == solver::Schedule::kDataflow;
    double t1 = 0.0;
    for (const unsigned w : workers) {
      const long long nx = kPerWorker * w;
      const long long ny = kPerWorker;
      const mesh::Grid grid =
          mesh::Grid::make_2d(nx, ny, 0.0, static_cast<double>(w), -0.5, 0.5);
      solver::SrhdSolver::Options opt;
      opt.recon = recon::Method::kPLMMC;
      opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
      opt.physics.eos = eos::IdealGas(4.0 / 3.0);
      opt.blocks = {2 * static_cast<int>(w), 2, 1};
      solver::SrhdSolver s(grid, opt);
      s.initialize(problems::kelvin_helmholtz_ic({}));
      parallel::ThreadPool pool(w);
      const double dt = 0.1 / static_cast<double>(kPerWorker);
      s.run_steps(1, dt, pool, schedule);  // warm-up
      WallTimer t;
      s.run_steps(kSteps, dt, pool, schedule);
      const double per_step = t.seconds() / kSteps;
      if (w == 1) t1 = per_step;
      table.add_row({std::string(dataflow ? "dataflow" : "bulk-sync"),
                     static_cast<long long>(w),
                     std::to_string(nx) + "x" + std::to_string(ny),
                     per_step, t1 / per_step,
                     static_cast<double>(nx * ny) * 3.0 / per_step / 1e6});
    }
  }
  bench::emit(table, "f4_weak_scaling");
  return 0;
}
