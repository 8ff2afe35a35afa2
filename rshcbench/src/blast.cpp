// Workload blast_srmhd_dist4: SRMHD magnetized cylindrical blast, 256^2
// global on [-1, 1]^2 with outflow boundaries, decomposed 2x2 over four
// ranks (comm::run_world + DistributedSrmhdSolver), overlapped halo
// exchange, a fixed comm::TransferModel, ranks on the global obs registry.
//
// As in the KH workloads a run is a sequence of identical episodes
// (re-initialize, one untimed warm step, a fixed number of timed
// operations). A barrier lines the ranks up before each operation, so an
// operation takes as long as its slowest rank: the max over ranks of
// compute_dt() + step(dt).

#include <array>
#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "common.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/mesh/halo.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace rshcbench {
namespace {

using rshc::solver::DistributedSrmhdSolver;
using rshc::solver::SrmhdSolver;

constexpr long long kN = 256;
constexpr int kRanks = 4;
constexpr double kZones = static_cast<double>(kN * kN);
constexpr int kStages = 3;
constexpr double kGamma = 5.0 / 3.0;
constexpr int kNumVars = 9;

/// Fixed message cost model of the in-process world (also stated in
/// BENCHMARK.json): 20 us per message, 4 GB/s, no jitter.
rshc::comm::TransferModel transfer_model() {
  rshc::comm::TransferModel m;
  m.latency_sec = 20e-6;
  m.bandwidth_bytes_per_sec = 4.0e9;
  return m;
}

SrmhdSolver::Options blast_options() {
  SrmhdSolver::Options opt;
  opt.recon = rshc::recon::Method::kPLMMC;
  opt.integrator = rshc::time::Integrator::kSspRk3;
  opt.cfl = 0.4;
  opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kOutflow);
  opt.physics.eos = rshc::eos::IdealGas{kGamma};
  return opt;
}

/// The catalog's magnetized blast with a seeded radius, inner pressure and
/// a weak seeded m = 3 azimuthal ripple on the inner pressure.
rshc::problems::SrmhdIc seeded_ic(std::uint64_t seed) {
  Rng rng(seed ^ 0x626c'6173'7432'6421ULL);
  rshc::problems::MhdBlast2d b;
  b.r_inner *= 1.0 + 0.1 * (rng.uniform() - 0.5);
  b.p_inner *= 1.0 + 0.1 * (rng.uniform() - 0.5);
  const double phase = 2.0 * std::numbers::pi * rng.uniform();
  const auto base = rshc::problems::mhd_blast2d_ic(b);
  return [=](double x, double y, double z) {
    auto p = base(x, y, z);
    if (std::hypot(x, y) < b.r_inner) {
      p.p *= 1.0 + 0.02 * std::cos(3.0 * std::atan2(y, x) + phase);
    }
    return p;
  };
}

/// What each rank records; written only by its own rank thread.
struct RankLog {
  std::vector<double> op_ms;
  std::vector<double> dt_ms;  ///< time inside DistributedSolver::compute_dt
  std::vector<std::string> failures;
  long long floor_ops = 0;  ///< operations in which this rank floored zones
  long long c2p_iters = 0;
  long long floored = 0;
  std::string first_digest;
};

/// SRMHD kernel probes on rank 0's mid-run block: con2prim, PLM-MC
/// reconstruction of all nine primitives, and the batched HLL+GLM faces.
void kernel_probes(Snapshot& snap, const SrmhdSolver::Options& opt,
                   Result& r) {
  const std::size_t n = snap.zones();
  const int reps = 15;
  const auto& c = snap.cons;
  std::vector<std::vector<double>> out(kNumVars, std::vector<double>(n));
  std::vector<double> c2p_ms;
  rshc::srmhd::kernels::BatchStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t v = 0; v < out.size(); ++v) out[v] = snap.prim[v];
    SpanScope span("srmhd.cons_to_prim_n");
    const std::int64_t t0 = now_ns();
    stats = rshc::srmhd::kernels::simd::cons_to_prim_n(
        n, c[0].data(), c[1].data(), c[2].data(), c[3].data(), c[4].data(),
        c[5].data(), c[6].data(), c[7].data(), c[8].data(), out[0].data(),
        out[1].data(), out[2].data(), out[3].data(), out[4].data(),
        out[5].data(), out[6].data(), out[7].data(), out[8].data(), kGamma,
        opt.physics.c2p);
    c2p_ms.push_back(ms_between(t0, now_ns()));
  }
  const auto dn = static_cast<double>(n);
  r.metric("srmhd.c2p_ns_per_zone", median(c2p_ms) * 1e6 / dn, "ns");
  r.metric("srmhd.c2p_iters_per_zone",
           static_cast<double>(stats.total_iterations) / dn, "count");
  r.metric("srmhd.c2p_bytes_per_zone_computed", 2 * kNumVars * 8, "B");

  recon_probe(snap, opt.recon, reps, r);

  const std::size_t nif = snap.faces_per_row();
  std::vector<std::vector<double>> fl(kNumVars,
                                      std::vector<double>(snap.nrows * nif));
  const double faces_ms = median_call_ms("riemann.srmhd_faces_n", reps, [&] {
    const double* wl[kNumVars];
    const double* wr[kNumVars];
    double* f[kNumVars];
    for (std::size_t row = 0; row < snap.nrows; ++row) {
      const std::size_t off = row * snap.nx + snap.ng - 1;
      for (std::size_t v = 0; v < kNumVars; ++v) {
        wl[v] = snap.qr[v].data() + off;
        wr[v] = snap.ql[v].data() + off + 1;
        f[v] = fl[v].data() + row * nif;
      }
      rshc::riemann::kernels::simd::srmhd_faces_n(
          nif, 0, wl, wr, f, opt.physics.eos, opt.physics.glm,
          opt.physics.c2p.rho_floor, opt.physics.c2p.p_floor);
    }
  });
  r.metric("riemann.srmhd_faces_ns_per_face",
           faces_ms * 1e6 / static_cast<double>(snap.nrows * nif), "ns");
  r.metric("riemann.srmhd_faces_bytes_per_face_computed", 3 * kNumVars * 8,
           "B");
}

/// mesh.pack_face_us / mesh.unpack_ghost_us on one rank block (x faces).
void mesh_probes(rshc::mesh::Block& blk, Result& r) {
  std::vector<double> buf(rshc::mesh::halo_buffer_size(blk, 0));
  const double pack_ms = median_call_ms("mesh.pack_face", 51, [&] {
    rshc::mesh::pack_face(blk, 0, 1, buf);
  });
  const double unpack_ms = median_call_ms("mesh.unpack_ghost", 51, [&] {
    rshc::mesh::unpack_ghost(blk, 0, 0, buf);
  });
  r.metric("mesh.pack_face_us", pack_ms * 1e3, "us");
  r.metric("mesh.unpack_ghost_us", unpack_ms * 1e3, "us");
  r.metric("mesh.face_bytes_computed",
           static_cast<double>(buf.size() * sizeof(double)), "B");
}

/// One operation on a single solver owning the whole 256^2 grid: the
/// 1-rank baseline of comm.strong_scaling_eff.
double serial_op_ms(const rshc::mesh::Grid& grid,
                    const rshc::problems::SrmhdIc& ic, int steps) {
  SrmhdSolver s(grid, blast_options());
  s.initialize(ic);
  s.step(s.compute_dt());
  std::vector<double> t;
  for (int i = 0; i < steps; ++i) {
    SpanScope span("solver.serial_op");
    const std::int64_t t0 = now_ns();
    s.step(s.compute_dt());
    t.push_back(ms_between(t0, now_ns()));
  }
  return median(t);
}

}  // namespace

Result run_blast(const Args& args) {
  const int episode_steps = args.quick ? 6 : 30;
  const auto grid = rshc::mesh::Grid::make_2d(kN, kN, -1.0, 1.0, -1.0, 1.0);
  const auto ic = seeded_ic(args.seed);
  const auto opt = blast_options();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  Result r;

  // --- set-up, five times: rank start-up, construction, initialization
  // and two warm-up steps, timed from before run_world to the barrier
  // after the warm-up. The last world goes on to the timed episodes.
  std::vector<double> setup_s;
  std::array<RankLog, kRanks> logs;
  long long ops = 0;  // written by rank 0 only
  int episodes = 0;   // rank 0 only
  double traced_messages = 0.0;
  double traced_bytes = 0.0;
  double hidden_ms = 0.0;
  int counted_steps = 0;
  // Rank 0 only: slowest-rank operation times.
  std::vector<std::vector<double>> episode_ms;
  std::vector<double> traced_op_ms;
  std::vector<double> untraced_op_ms;
  std::unique_ptr<Snapshot> snap;

  constexpr int kSetups = 5;
  for (int rep = 0; rep < kSetups; ++rep) {
    const bool timed = rep == kSetups - 1;
    const std::int64_t t_setup = now_ns();
    rshc::comm::run_world(
        kRanks,
        [&](rshc::comm::Communicator& comm) {
          const int rank = comm.rank();
          auto& log = logs[static_cast<std::size_t>(rank)];
          DistributedSrmhdSolver ds(grid, comm, opt);
          ds.set_overlap(true);
          ds.initialize(ic);
          ds.step(ds.compute_dt());
          ds.step(ds.compute_dt());
          comm.barrier();
          if (rank == 0) setup_s.push_back(ms_between(t_setup, now_ns()) * 1e-3);
          if (!timed) return;

          // Whole episodes until --seconds have passed; in the traced run
          // the first half's episodes are untraced. Rank 0's clock decides
          // for everyone (0 = stop, 1 = untraced, 2 = traced).
          const std::int64_t start = now_ns();
          for (int ep = 0;; ++ep) {
            double mode = 0.0;
            if (rank == 0) {
              const std::int64_t elapsed = now_ns() - start;
              const bool stop = ep > 0 && elapsed >= budget_ns &&
                                (!args.trace || !traced_op_ms.empty());
              const bool traced = args.trace && ep > 0 && elapsed >= budget_ns / 2;
              mode = stop ? 0.0 : (traced ? 2.0 : 1.0);
              if (!stop) {
                ++episodes;
                episode_ms.emplace_back();
              }
              Tracer::get().set_enabled(traced && !stop);
            }
            mode = comm.allreduce(mode, rshc::comm::ReduceOp::kMax);
            if (mode == 0.0) break;
            const bool traced = mode == 2.0;
            ds.initialize(ic);
            {
              SpanScope span("solver.warm_step");
              ds.step(ds.compute_dt());
            }
            for (int i = 0; i < episode_steps; ++i) {
              comm.barrier();
              const long long floors_before =
                  ds.local().c2p_stats().floored_zones;
              const std::int64_t t0 = now_ns();
              std::int64_t t_dt = 0;
              {
                SpanScope op("solver.op");
                double dt = 0.0;
                {
                  SpanScope span("comm.compute_dt");
                  dt = ds.compute_dt();
                }
                t_dt = now_ns();
                SpanScope span("solver.step");
                ds.step(dt);
              }
              const std::int64_t t1 = now_ns();
              log.op_ms.push_back(ms_between(t0, t1));
              log.dt_ms.push_back(ms_between(t0, t_dt));
              if (ds.local().c2p_stats().floored_zones > floors_before) {
                ++log.floor_ops;
              }
              // The operation took as long as its slowest rank (untimed).
              const double slowest = comm.allreduce(
                  ms_between(t0, t1), rshc::comm::ReduceOp::kMax);
              if (rank == 0) {
                ++ops;
                episode_ms.back().push_back(slowest);
                (traced ? traced_op_ms : untraced_op_ms).push_back(slowest);
              }
              if (traced && rank == 0 && !snap && i == episode_steps / 2) {
                snap = std::make_unique<Snapshot>(
                    take_snapshot(ds.local_block()));
              }
            }
            log.c2p_iters += ds.local().c2p_stats().total_iterations;
            log.floored += ds.local().c2p_stats().floored_zones;
            const std::string problem = block_problem(ds.local_block());
            if (!problem.empty()) {
              log.failures.push_back("rank " + std::to_string(rank) +
                                     " episode " + std::to_string(ep) + ": " +
                                     problem);
            }
            Digest d;
            digest_block(ds.local_block(), d);
            if (log.first_digest.empty()) log.first_digest = d.hex();
            if (d.hex() != log.first_digest) {
              log.failures.push_back("rank " + std::to_string(rank) +
                                     " episode " + std::to_string(ep) +
                                     " digest differs from episode 0");
            }
          }
          if (rank == 0) Tracer::get().set_enabled(false);
          if (!args.trace) return;

          // Exact per-step message counts over a dedicated stretch, with
          // every rank idle at both counter reads.
          const int count_steps = args.quick ? 2 : 20;
          comm.barrier();
          const std::int64_t m0 = obs_counter("comm.messages_sent");
          const std::int64_t b0 = obs_counter("comm.bytes_sent");
          const std::int64_t h0 = obs_counter("comm.overlap.hidden_ms");
          comm.barrier();
          for (int i = 0; i < count_steps; ++i) ds.step(ds.compute_dt());
          comm.barrier();
          if (rank == 0) {
            traced_messages =
                static_cast<double>(obs_counter("comm.messages_sent") - m0);
            traced_bytes = static_cast<double>(obs_counter("comm.bytes_sent") - b0);
            hidden_ms =
                static_cast<double>(obs_counter("comm.overlap.hidden_ms") - h0);
            counted_steps = count_steps;
            // The block's grid lives in `ds`: probe it before the world ends.
            Tracer::get().set_enabled(true);
            mesh_probes(ds.local().block(0), r);
            Tracer::get().set_enabled(false);
          }
          comm.barrier();
        },
        transfer_model());
  }

  r.attempted = ops;
  for (std::size_t k = 0; k < logs.size(); ++k) {
    for (const auto& f : logs[k].failures) r.fail(f);
    if (logs[k].floor_ops > 0) {
      r.fail("rank " + std::to_string(k) + " floored zones in " +
                 std::to_string(logs[k].floor_ops) + " operations",
             logs[k].floor_ops);
    }
  }
  long long c2p_iters = 0;
  long long floored = 0;
  for (const auto& log : logs) {
    c2p_iters += log.c2p_iters;
    floored += log.floored;
  }
  r.note("episodes", static_cast<double>(episodes));
  r.note("episode_steps", static_cast<double>(episode_steps));
  r.note("floored_zones", static_cast<double>(floored));
  r.note("rank0_final_state_digest", logs[0].first_digest);
  r.note("grid", "256x256 on 2x2 ranks");
  r.note("transfer_model", "latency 20us, bandwidth 4e9 B/s, no jitter");

  if (!args.trace) {
    solver_end_to_end(episode_ms, kZones, setup_s, r);
    return r;
  }

  // --- traced run: per-layer metrics.
  std::vector<double> dt_all;
  std::array<double, kRanks> busy{};
  for (std::size_t k = 0; k < logs.size(); ++k) {
    dt_all.insert(dt_all.end(), logs[k].dt_ms.begin(), logs[k].dt_ms.end());
    for (std::size_t i = 0; i < logs[k].op_ms.size(); ++i) {
      busy[k] += logs[k].op_ms[i] - logs[k].dt_ms[i];
    }
  }
  double busy_max = 0.0;
  double busy_min = busy[0];
  double busy_mean = 0.0;
  for (const double b : busy) {
    busy_max = std::max(busy_max, b);
    busy_min = std::min(busy_min, b);
    busy_mean += b / kRanks;
  }
  const double slowest_p50 = median(traced_op_ms);
  r.metric("solver.step_ms", slowest_p50, "ms");
  r.metric("solver.compute_dt_ms", median(dt_all), "ms");
  r.metric("solver.c2p_iters_per_zone",
           static_cast<double>(c2p_iters) /
               (kZones * kStages * static_cast<double>(ops + episodes)),
           "count");
  r.metric("solver.floored_zones", static_cast<double>(floored), "count");
  r.metric("trace.overhead_pct",
           100.0 * (slowest_p50 / median(untraced_op_ms) - 1.0), "%");
  r.metric("comm.messages_per_step", traced_messages / counted_steps, "count");
  r.metric("comm.bytes_per_step", traced_bytes / counted_steps, "B");
  r.metric("comm.dt_allreduce_ms_p50", median(dt_all), "ms");
  r.metric("comm.dt_allreduce_ms_max", quantile(dt_all, 1.0), "ms");
  r.metric("comm.rank_imbalance", (busy_max - busy_min) / busy_mean, "1");
  r.metric("comm.overlap_hidden_ms_per_step", hidden_ms / counted_steps, "ms");

  Tracer::get().set_enabled(true);
  const double serial_ms = serial_op_ms(grid, ic, args.quick ? 2 : 10);
  r.metric("comm.strong_scaling_eff", serial_ms / (kRanks * slowest_p50), "1");
  if (snap) kernel_probes(*snap, opt, r);
  Tracer::get().set_enabled(false);
  return r;
}

}  // namespace rshcbench
