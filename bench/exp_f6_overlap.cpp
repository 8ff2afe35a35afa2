// Experiment F6 — communication/computation overlap (figure).
// Part A (shared memory): dataflow vs bulk-sync time/step as the block
// count grows at fixed problem size — more blocks means more pipelining
// opportunity for dataflow and more barrier overhead for bulk-sync.
// Part B (message passing): distributed stepping under injected
// per-message latency, synchronous vs latency-hiding exchange. The sync
// schedule pays every halo wait on the critical path, so its cost per
// step grows linearly with latency; the overlapped schedule computes the
// ghost-free interior while messages fly and only waits for the
// remainder, so its latency slope is much shallower. Both columns step
// the same bitwise-identical numerics (tests/test_overlap.cpp).
//
// Expected shape: A — dataflow's advantage grows with block count
// (muted on this 1-core host); B — sync time/step grows roughly linearly
// with injected latency while overlap's growth is mostly hidden
// (overlap_speedup rising with latency).

#include "rshc/parallel/thread_pool.hpp"
#include "rshc/solver/distributed.hpp"

#include "exp_common.hpp"

int main() {
  using namespace rshc;
  constexpr long long kN = 96;
  constexpr int kSteps = 6;

  // --- Part A: block-count sweep --------------------------------------
  Table a({"blocks", "bulk_sec_per_step", "dataflow_sec_per_step",
           "dataflow_speedup"});
  a.set_title("F6a: overlap vs block count (96^2, 2 workers)");
  for (const int nb : {1, 2, 4, 6}) {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::SrhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    opt.blocks = {nb, nb, 1};
    const double dt = 0.1 / static_cast<double>(kN);
    parallel::ThreadPool pool(2);

    auto run = [&](solver::Schedule schedule) {
      solver::SrhdSolver s(grid, opt);
      s.initialize(problems::kelvin_helmholtz_ic({}));
      s.run_steps(1, dt, pool, schedule);  // warm-up
      WallTimer t;
      s.run_steps(kSteps, dt, pool, schedule);
      return t.seconds() / kSteps;
    };
    const double bulk = run(solver::Schedule::kBulkSync);
    const double flow = run(solver::Schedule::kDataflow);
    a.add_row({static_cast<long long>(nb * nb), bulk, flow, bulk / flow});
  }
  bench::emit(a, "f6a_overlap_blocks");

  // --- Part B: injected message latency, sync vs overlapped -------------
  Table b({"latency_us", "sync_sec_per_step", "overlap_sec_per_step",
           "overlap_speedup", "messages_per_step"});
  b.set_title("F6b: distributed step cost vs injected per-message latency "
              "(4 ranks, 96^2, sync vs latency-hiding exchange)");
  for (const double latency_us : {0.0, 250.0, 1000.0, 2000.0}) {
    const mesh::Grid grid = mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
    solver::DistributedSrhdSolver::Options opt;
    opt.recon = recon::Method::kPLMMC;
    opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
    opt.physics.eos = eos::IdealGas(4.0 / 3.0);
    const double dt = 0.1 / static_cast<double>(kN);

    comm::TransferModel model;
    model.latency_sec = latency_us * 1e-6;

    double msgs_per_step = 0.0;
    auto run = [&](bool overlap) {
      comm::World world(4, model);
      WallTimer t;
      {
        std::vector<std::jthread> threads;
        for (int r = 0; r < 4; ++r) {
          threads.emplace_back([&world, &grid, &opt, dt, overlap, r] {
            auto c = world.communicator(r);
            solver::DistributedSrhdSolver s(grid, c, opt);
            s.set_overlap(overlap);
            s.initialize(problems::kelvin_helmholtz_ic({}));
            for (int i = 0; i < kSteps; ++i) s.step(dt);
          });
        }
      }
      msgs_per_step = static_cast<double>(world.total_messages()) / kSteps;
      return t.seconds() / kSteps;
    };
    const double sync_step = run(false);
    const double overlap_step = run(true);
    b.add_row({latency_us, sync_step, overlap_step, sync_step / overlap_step,
               msgs_per_step});
  }
  bench::emit(b, "f6b_overlap_latency");
  return 0;
}
