// Heterogeneous execution demo: the same block stepped on the host
// pipeline and on the simulated accelerator (HostPipeline::kDevice, same
// compiled kernels, bitwise-identical result), plus a dataflow-vs-bulk-sync
// comparison of the two pool schedules of the block task graph on each
// pipeline.
//
//   ./examples/heterogeneous [N=128] [threads=4] [steps=20]
//
// This is the "zero to offload" tour of the device and runtime layers the
// paper's heterogeneous pipeline rests on.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rshc/common/config.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"

int main(int argc, char** argv) {
  using namespace rshc;
  const Config cfg = Config::from_args(argc, argv);
  const long long n = cfg.get_int("N", 128);
  const unsigned threads =
      static_cast<unsigned>(cfg.get_int("threads", 4));
  const int steps = static_cast<int>(cfg.get_int("steps", 20));

  const mesh::Grid grid = mesh::Grid::make_2d(n, n, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);

  // Part 1: the same block stepped on the host and on the device.
  std::printf("# Part 1: %d steps of a %lldx%lld block per pipeline\n",
              steps, n, n);
  std::printf("%-14s %-12s %-12s\n", "pipeline", "seconds",
              "Mzone-upd/s");
  const double zone_updates = static_cast<double>(n * n) *
                              time::num_stages(opt.integrator) * steps;
  std::vector<double> host_prim;
  bool identical = true;
  for (const auto pipeline :
       {solver::HostPipeline::kBatchedSimd, solver::HostPipeline::kDevice}) {
    auto o = opt;
    o.pipeline = pipeline;
    auto s = std::make_unique<solver::SrhdSolver>(grid, o);
    s->initialize([](double x, double y, double) {
      srhd::Prim w;
      w.rho = 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
      w.vx = 0.4;
      w.vy = -0.3;
      w.p = 1.0;
      return w;
    });
    const double dt = s->compute_dt();
    WallTimer t;
    for (int i = 0; i < steps; ++i) s->step(dt);
    s->sync_from_device();  // device: drain and copy the state back
    const double secs = t.seconds();
    std::printf("%-14s %-12.4f %-12.2f\n",
                std::string(solver::host_pipeline_name(pipeline)).c_str(),
                secs, zone_updates / secs / 1e6);
    const auto prim = s->block(0).prim().flat();
    if (host_prim.empty()) {
      host_prim.assign(prim.begin(), prim.end());
    } else {
      identical = std::memcmp(host_prim.data(), prim.data(),
                              prim.size() * sizeof(double)) == 0;
    }
  }
  std::printf("# device state bitwise identical to host: %s\n",
              identical ? "yes" : "NO");

  // Part 2: futurized dataflow vs bulk-synchronous stepping, on both
  // pipelines (the device runs the same step graph on the pool).
  std::printf("\n# Part 2: %d steps of a %lldx%lld run on %u workers, "
              "4x4 blocks\n",
              steps, n, n, threads);
  parallel::ThreadPool pool(threads);
  const double dt = 0.2 / static_cast<double>(n);
  std::printf("%-14s %-12s %-12s %-12s\n", "pipeline", "mode", "seconds",
              "steps/s");
  for (const auto pipeline :
       {solver::HostPipeline::kBatchedSimd, solver::HostPipeline::kDevice}) {
    double secs[2] = {0.0, 0.0};
    for (const auto schedule :
         {solver::Schedule::kBulkSync, solver::Schedule::kDataflow}) {
      auto o = opt;
      o.blocks = {4, 4, 1};
      o.pipeline = pipeline;
      solver::SrhdSolver s(grid, o);
      s.initialize(problems::kelvin_helmholtz_ic({}));
      const bool bulk = schedule == solver::Schedule::kBulkSync;
      WallTimer t;
      s.run_steps(steps, dt, pool, schedule);
      s.sync_from_device();
      const double sec = t.seconds();
      secs[bulk ? 0 : 1] = sec;
      std::printf("%-14s %-12s %-12.4f %-12.2f\n",
                  std::string(solver::host_pipeline_name(pipeline)).c_str(),
                  bulk ? "bulk-sync" : "dataflow", sec, steps / sec);
    }
    std::printf("# %s dataflow speedup: %.2fx (the gap widens with cores "
                "and block count)\n",
                std::string(solver::host_pipeline_name(pipeline)).c_str(),
                secs[0] / secs[1]);
  }
  rshc::obs::maybe_dump("heterogeneous");
  return 0;
}
