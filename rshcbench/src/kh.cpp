// Workloads kh_srhd and kh_srhd_device: SRHD Kelvin-Helmholtz, 128^2
// periodic, PLM-MC + HLLC, SSP-RK3, stepped serially on one thread through
// FvSolver::step on the default batched-simd pipeline (kh_srhd) or on
// HostPipeline::kDevice with the default AccelModel (kh_srhd_device).
//
// A run is a sequence of identical episodes: re-initialize from the seeded
// initial data and take one untimed warm step (on kDevice that step carries
// the residency upload), then a fixed number of timed operations, where one
// operation is compute_dt() + step(dt). Every episode ends in the
// same state, so its digest must repeat, and must equal the digest one
// episode of the other pipeline reaches (the bitwise pipeline contract,
// checked in-process after the timed phase).

#include <array>
#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "common.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/obs/metrics.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/kernels.hpp"

namespace rshcbench {
namespace {

using rshc::solver::HostPipeline;
using rshc::solver::SrhdSolver;

constexpr long long kN = 128;
constexpr double kZones = static_cast<double>(kN * kN);
constexpr int kStages = 3;  // SSP-RK3
constexpr double kGamma = 4.0 / 3.0;

SrhdSolver::Options kh_options(HostPipeline pipeline) {
  SrhdSolver::Options opt;
  opt.recon = rshc::recon::Method::kPLMMC;
  opt.integrator = rshc::time::Integrator::kSspRk3;
  opt.cfl = 0.4;
  opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kPeriodic);
  opt.physics.eos = rshc::eos::IdealGas{kGamma};
  opt.physics.riemann = rshc::riemann::Solver::kHLLC;
  opt.pipeline = pipeline;
  return opt;
}

/// The catalog's double shear layer plus three more v_y modes whose
/// amplitudes and phases come from the seed, localized on the layers like
/// the catalog's own mode, so every seed reaches a different state.
rshc::problems::SrhdIc seeded_ic(std::uint64_t seed) {
  const rshc::problems::KelvinHelmholtz kh;
  const auto base = rshc::problems::kelvin_helmholtz_ic(kh);
  Rng rng(seed ^ 0x4b48'5f73'7268'6421ULL);
  std::array<double, 3> amp{};
  std::array<double, 3> phase{};
  for (std::size_t m = 0; m < amp.size(); ++m) {
    amp[m] = 0.5 + 0.5 * rng.uniform();
    phase[m] = 2.0 * std::numbers::pi * rng.uniform();
  }
  return [=](double x, double y, double z) {
    auto p = base(x, y, z);
    const double a2 = 4.0 * kh.layer_width * kh.layer_width;
    const double lobes = std::exp(-(y - 0.25) * (y - 0.25) / a2) +
                         std::exp(-(y + 0.25) * (y + 0.25) / a2);
    double s = 0.0;
    for (std::size_t m = 0; m < amp.size(); ++m) {
      s += amp[m] * std::sin(2.0 * std::numbers::pi *
                                 static_cast<double>(m + 2) * x +
                             phase[m]);
    }
    p.vy += 0.005 * kh.shear_velocity * s * lobes;
    return p;
  };
}

std::string state_digest(const SrhdSolver& s) {
  Digest d;
  for (int b = 0; b < s.num_blocks(); ++b) digest_block(s.block(b), d);
  return d.hex();
}

bool conserved(double before, double after) {
  return std::abs(after - before) <= 1e-11 * std::max(1.0, std::abs(before));
}

/// Kernel-level per-layer metrics on the snapshot: srhd con2prim,
/// prim->cons and physical flux, PLM-MC reconstruction and the batched
/// HLLC face solve, each timed from outside around one public call.
void kernel_probes(Snapshot& snap, const SrhdSolver::Options& opt,
                   Result& r) {
  namespace k = rshc::srhd::kernels::simd;
  const std::size_t n = snap.zones();
  const int reps = 15;
  const auto& p = snap.prim;
  const auto& c = snap.cons;
  std::array<std::vector<double>, 5> out;
  for (auto& o : out) o.resize(n);

  // con2prim: outputs start from the snapshot primitives on every rep, so
  // a solver that reads its output arrays as a first guess sees the state
  // the solver would hand it.
  std::vector<double> c2p_ms;
  rshc::srhd::kernels::BatchStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t v = 0; v < out.size(); ++v) out[v] = p[v];
    SpanScope span("srhd.cons_to_prim_n");
    const std::int64_t t0 = now_ns();
    stats = k::cons_to_prim_n(n, c[0].data(), c[1].data(), c[2].data(),
                              c[3].data(), c[4].data(), out[0].data(),
                              out[1].data(), out[2].data(), out[3].data(),
                              out[4].data(), kGamma, opt.physics.c2p);
    c2p_ms.push_back(ms_between(t0, now_ns()));
  }
  const auto dn = static_cast<double>(n);
  r.metric("srhd.c2p_ns_per_zone", median(c2p_ms) * 1e6 / dn, "ns");
  r.metric("srhd.c2p_iters_per_zone",
           static_cast<double>(stats.total_iterations) / dn, "count");
  r.metric("srhd.c2p_bytes_per_zone_computed", 10 * 8, "B");

  const double p2c_ms = median_call_ms("srhd.prim_to_cons_n", reps, [&] {
    k::prim_to_cons_n(n, p[0].data(), p[1].data(), p[2].data(), p[3].data(),
                      p[4].data(), out[0].data(), out[1].data(),
                      out[2].data(), out[3].data(), out[4].data(), kGamma);
  });
  r.metric("srhd.prim2cons_ns_per_zone", p2c_ms * 1e6 / dn, "ns");
  r.metric("srhd.prim2cons_bytes_per_zone_computed", 10 * 8, "B");

  const double flux_ms = median_call_ms("srhd.flux_n", reps, [&] {
    k::flux_n(n, 0, p[0].data(), p[1].data(), p[2].data(), p[3].data(),
              p[4].data(), c[0].data(), c[1].data(), c[2].data(),
              c[3].data(), c[4].data(), out[0].data(), out[1].data(),
              out[2].data(), out[3].data(), out[4].data());
  });
  r.metric("srhd.flux_ns_per_zone", flux_ms * 1e6 / dn, "ns");
  r.metric("srhd.flux_bytes_per_zone_computed", 15 * 8, "B");

  recon_probe(snap, opt.recon, reps, r);

  // HLLC faces: interface i+1/2 takes (qr[i], ql[i+1]) for the interior
  // interfaces of each row, as the solver's batched RHS stages them.
  const std::size_t nif = snap.faces_per_row();
  std::array<std::vector<double>, 5> fl;
  for (auto& f : fl) f.assign(snap.nrows * nif, 0.0);
  const double faces_ms = median_call_ms("riemann.srhd_faces_n", reps, [&] {
    const double* wl[5];
    const double* wr[5];
    double* f[5];
    for (std::size_t row = 0; row < snap.nrows; ++row) {
      const std::size_t off = row * snap.nx + snap.ng - 1;
      for (std::size_t v = 0; v < 5; ++v) {
        wl[v] = snap.qr[v].data() + off;
        wr[v] = snap.ql[v].data() + off + 1;
        f[v] = fl[v].data() + row * nif;
      }
      rshc::riemann::kernels::simd::srhd_faces_n(
          nif, 0, opt.physics.riemann, wl, wr, f, opt.physics.eos,
          opt.physics.c2p.rho_floor, opt.physics.c2p.p_floor);
    }
  });
  r.metric("riemann.srhd_faces_ns_per_face",
           faces_ms * 1e6 / static_cast<double>(snap.nrows * nif), "ns");
  r.metric("riemann.srhd_faces_bytes_per_face_computed", 15 * 8, "B");
}

/// obs.overhead_pct and obs.scoped_overhead_pct: the same KH steps with
/// obs accumulation on vs off, and under an obs::ScopedRegistry vs the
/// global registry, interleaved in short blocks so both arms see the same
/// flow states.
void obs_probes(const rshc::mesh::Grid& grid, const rshc::problems::SrhdIc& ic,
                bool quick, Result& r) {
  SrhdSolver s(grid, kh_options(HostPipeline::kBatchedSimd));
  s.initialize(ic);
  s.step(s.compute_dt());
  const int rounds = quick ? 2 : 8;
  constexpr int kBlock = 3;
  auto block = [&](std::vector<double>& t) {
    for (int i = 0; i < kBlock; ++i) {
      const std::int64_t t0 = now_ns();
      s.step(s.compute_dt());
      t.push_back(ms_between(t0, now_ns()));
    }
  };
  const bool was_enabled = rshc::obs::enabled();
  std::vector<double> on;
  std::vector<double> off;
  std::vector<double> global;
  std::vector<double> scoped;
  {
    SpanScope span("obs.set_enabled_ab");
    for (int i = 0; i < rounds; ++i) {
      rshc::obs::set_enabled(true);
      block(on);
      rshc::obs::set_enabled(false);
      block(off);
    }
    rshc::obs::set_enabled(was_enabled);
  }
  {
    SpanScope span("obs.scoped_registry_ab");
    rshc::obs::Registry reg;
    for (int i = 0; i < rounds; ++i) {
      block(global);
      rshc::obs::ScopedRegistry scope(reg);
      block(scoped);
    }
  }
  r.metric("obs.overhead_pct", 100.0 * (median(on) / median(off) - 1.0), "%");
  r.metric("obs.scoped_overhead_pct",
           100.0 * (median(scoped) / median(global) - 1.0), "%");
}

}  // namespace

Result run_kh(const Args& args, bool device) {
  const HostPipeline pipeline =
      device ? HostPipeline::kDevice : HostPipeline::kBatchedSimd;
  const HostPipeline other =
      device ? HostPipeline::kBatchedSimd : HostPipeline::kDevice;
  const int episode_steps = args.quick ? 8 : 50;
  const auto grid = rshc::mesh::Grid::make_2d(kN, kN, -0.5, 0.5, -0.5, 0.5);
  const auto ic = seeded_ic(args.seed);
  const auto opt = kh_options(pipeline);
  Result r;

  // --- set-up: construct, initialize, two warm-up steps (the first one
  // uploads the state on kDevice); five times, median reported.
  std::unique_ptr<SrhdSolver> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = std::make_unique<SrhdSolver>(grid, opt);
    s->initialize(ic);
    s->step(s->compute_dt());
    s->step(s->compute_dt());
    setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }

  // --- timed episodes, whole ones only, until --seconds have passed. In
  // the traced run the episodes of the first half are untraced (the
  // tracing-overhead baseline) and the rest traced.
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<std::vector<double>> episode_ms;
  std::vector<double> traced_op_ms;
  std::vector<double> untraced_op_ms;
  std::string first_digest;
  int episodes = 0;
  long long c2p_iters = 0;
  long long floored = 0;
  std::int64_t h2d = 0;
  std::int64_t d2h = 0;
  std::unique_ptr<Snapshot> snap;

  for (int ep = 0;; ++ep) {
    const std::int64_t elapsed = now_ns() - start;
    if (ep > 0 && elapsed >= budget_ns &&
        (!args.trace || !traced_op_ms.empty())) {
      break;
    }
    const bool traced = args.trace && ep > 0 && elapsed >= budget_ns / 2;
    ++episodes;
    episode_ms.emplace_back();
    Tracer::get().set_enabled(traced);
    s->initialize(ic);
    const auto c0 = s->total_cons();
    {
      // Warm step, untimed: on kDevice it carries the residency upload.
      SpanScope span("solver.warm_step");
      s->step(s->compute_dt());
    }
    for (int i = 0; i < episode_steps; ++i) {
      const long long floors_before = s->c2p_stats().floored_zones;
      const std::int64_t h2d0 = traced ? obs_counter("device.h2d.bytes") : 0;
      const std::int64_t d2h0 = traced ? obs_counter("device.d2h.bytes") : 0;
      double dt = 0.0;
      const std::int64_t t0 = now_ns();
      {
        SpanScope op("solver.op");
        {
          SpanScope span("solver.compute_dt");
          dt = s->compute_dt();
        }
        SpanScope span("solver.step");
        s->step(dt);
      }
      const double ms = ms_between(t0, now_ns());
      ++r.attempted;
      episode_ms.back().push_back(ms);
      (traced ? traced_op_ms : untraced_op_ms).push_back(ms);
      if (!(std::isfinite(dt) && dt > 0.0)) r.fail("non-finite or non-positive dt");
      if (s->c2p_stats().floored_zones > floors_before) {
        r.fail("step floored " +
               std::to_string(s->c2p_stats().floored_zones - floors_before) +
               " zones");
      }
      if (traced) {
        h2d += obs_counter("device.h2d.bytes") - h2d0;
        d2h += obs_counter("device.d2h.bytes") - d2h0;
        // Sampled public hooks on the same state (not part of the step):
        // one full RHS evaluation and one ghost fill.
        if (!device && i % 5 == 0) {
          {
            SpanScope span("solver.compute_rhs_all");
            s->compute_rhs_all();
          }
          SpanScope span("solver.fill_all_ghosts");
          s->fill_all_ghosts();
        }
        if (!snap && i == episode_steps / 2) {
          s->sync_from_device();
          snap = std::make_unique<Snapshot>(take_snapshot(s->block(0)));
        }
      }
    }
    {
      SpanScope span("device.sync_from_device");
      s->sync_from_device();
    }
    c2p_iters += s->c2p_stats().total_iterations;
    floored += s->c2p_stats().floored_zones;
    const std::string problem = block_problem(s->block(0));
    if (!problem.empty()) r.fail("episode " + std::to_string(ep) + ": " + problem);
    const auto c1 = s->total_cons();
    if (!conserved(c0.d, c1.d) || !conserved(c0.tau, c1.tau)) {
      r.fail("episode " + std::to_string(ep) + ": D or tau not conserved");
    }
    const std::string digest = state_digest(*s);
    if (first_digest.empty()) first_digest = digest;
    if (digest != first_digest) {
      r.fail("episode " + std::to_string(ep) + " digest " + digest +
             " differs from episode 0 " + first_digest);
    }
  }
  Tracer::get().set_enabled(false);

  // --- bitwise pipeline contract: one episode of the other pipeline from
  // the same initial data must reach the same digest.
  {
    SrhdSolver ref(grid, kh_options(other));
    ref.initialize(ic);
    ref.step(ref.compute_dt());
    for (int i = 0; i < episode_steps; ++i) ref.step(ref.compute_dt());
    ref.sync_from_device();
    const std::string ref_digest = state_digest(ref);
    r.note("reference_pipeline",
           std::string(rshc::solver::host_pipeline_name(other)));
    r.note("reference_digest", ref_digest);
    if (ref_digest != first_digest) {
      r.fail("final-state digest " + first_digest + " differs from the " +
             std::string(rshc::solver::host_pipeline_name(other)) +
             " pipeline's " + ref_digest);
    }
  }
  r.note("final_state_digest", first_digest);
  r.note("episode_steps", static_cast<double>(episode_steps));
  r.note("episodes", static_cast<double>(episodes));
  r.note("floored_zones", static_cast<double>(floored));
  r.note("grid", "128x128");

  // c2p_stats() restarts at initialize(); each episode adds its warm step.
  const double step_zone_stages =
      kZones * kStages * static_cast<double>(r.attempted + episodes);
  if (!args.trace) {
    solver_end_to_end(episode_ms, kZones, setup_s, r);
    return r;
  }

  // --- traced run: per-layer metrics.
  const double step_ms = median(Tracer::get().durations_ms("solver.op"));
  const double dt_ms = median(Tracer::get().durations_ms("solver.compute_dt"));
  r.metric("solver.step_ms", step_ms, "ms");
  r.metric("solver.compute_dt_ms", dt_ms, "ms");
  if (!device) {
    const double rhs_ms =
        median(Tracer::get().durations_ms("solver.compute_rhs_all"));
    const double ghosts_ms =
        median(Tracer::get().durations_ms("solver.fill_all_ghosts"));
    r.metric("solver.rhs_ms", rhs_ms, "ms");
    r.metric("solver.ghosts_ms", ghosts_ms, "ms");
    r.metric("solver.update_c2p_ms",
             step_ms - kStages * rhs_ms - kStages * ghosts_ms - dt_ms, "ms");
  }
  r.metric("solver.c2p_iters_per_zone",
           static_cast<double>(c2p_iters) / step_zone_stages, "count");
  r.metric("solver.floored_zones", static_cast<double>(floored), "count");
  r.metric("trace.overhead_pct",
           100.0 * (median(traced_op_ms) / median(untraced_op_ms) - 1.0), "%");
  if (device) {
    r.metric("device.h2d_bytes_per_step",
             static_cast<double>(h2d) / static_cast<double>(traced_op_ms.size()),
             "B");
    r.metric("device.d2h_bytes_per_step",
             static_cast<double>(d2h) / static_cast<double>(traced_op_ms.size()),
             "B");
    r.metric("device.residency_upload_ms",
             median(Tracer::get().durations_ms("solver.warm_step")) -
                 median(Tracer::get().durations_ms("solver.op")),
             "ms");
    r.metric("device.sync_ms",
             median(Tracer::get().durations_ms("device.sync_from_device")),
             "ms");
  }
  Tracer::get().set_enabled(true);
  if (snap) kernel_probes(*snap, opt, r);
  if (!device) obs_probes(grid, ic, args.quick, r);
  Tracer::get().set_enabled(false);
  return r;
}

}  // namespace rshcbench
