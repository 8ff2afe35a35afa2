// Experiment T4 — conservative-to-primitive robustness and cost.
// Sweeps Lorentz factor W and pressure-to-density ratio over many decades
// for SRHD and for SRMHD at magnetization sigma ~ 1; reports mean/max
// Newton iterations and the failure (atmosphere-fallback) count.
//
// Each (system, W) row is solved twice: zone by zone (cons_to_prim) and as
// one batch through the lane-wise tile kernel the solver runs
// (kernels::simd::cons_to_prim_n). The batch must report the same failure
// and iteration counts — the harness exits non-zero otherwise — and both
// costs are reported in ns/zone over the row's states repeated to a
// 4096-zone batch.
//
// Expected shape: iteration counts grow slowly with W and stay bounded
// (< ~40) everywhere; zero failures across the physical sweep, including
// W = 50 and p/rho from 1e-8 to 1e8; the batched solve several times
// cheaper per zone than the per-zone loop.

#include <algorithm>
#include <array>

#include "exp_common.hpp"
#include "rshc/srhd/kernels.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace {

using namespace rshc;

constexpr std::size_t kTimedZones = 4096;
constexpr int kTimedReps = 20;

struct RowStats {
  long long iterations = 0;
  long long max_iterations = 0;
  long long failures = 0;
  double worst_err = 0.0;
};

/// Median-of-reps wall time per zone of `solve` over kTimedZones zones.
template <typename F>
double ns_per_zone(F&& solve) {
  std::vector<double> t(kTimedReps);
  for (double& s : t) {
    const WallTimer timer;
    solve();
    s = timer.seconds();
  }
  std::sort(t.begin(), t.end());
  return 1e9 * t[t.size() / 2] / static_cast<double>(kTimedZones);
}

/// SoA columns of the `vars` members of the case states, cycled to n zones.
template <typename Cons, std::size_t N>
std::vector<std::vector<double>> columns(const std::vector<Cons>& cases,
                                         std::size_t n,
                                         std::array<double Cons::*, N> vars) {
  std::vector<std::vector<double>> c(N, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t v = 0; v < N; ++v) {
      c[v][i] = cases[i % cases.size()].*vars[v];
    }
  }
  return c;
}

}  // namespace

int main() {
  const eos::IdealGas eos_h(5.0 / 3.0);
  const std::vector<double> lorentz = {1.01, 2.0, 5.0, 10.0, 20.0, 50.0};
  const std::vector<double> p_over_rho = {1e-8, 1e-4, 1e-2, 1.0,
                                          1e2,  1e4,  1e8};
  const std::array<std::array<double, 3>, 3> dirs = {
      std::array<double, 3>{1, 0, 0}, std::array<double, 3>{0.6, 0.8, 0},
      std::array<double, 3>{0.57735, 0.57735, 0.57735}};

  Table table({"system", "W", "mean_iters", "max_iters", "failures",
               "worst_rel_err", "zone_ns", "batched_ns"});
  table.set_title("T4: con2prim robustness across (W, p/rho) sweep");
  bool agree = true;

  for (const bool mhd : {false, true}) {
    for (const double W : lorentz) {
      const double v = std::sqrt(1.0 - 1.0 / (W * W));
      RowStats zone;
      std::vector<srhd::Cons> hd;
      std::vector<srmhd::Cons> md;
      // Several velocity orientations per (W, p/rho).
      for (const double pr : p_over_rho) {
        for (const auto& dir : dirs) {
          int iters = 0;
          bool floored = false;
          double rho = 0.0;
          if (!mhd) {
            const srhd::Prim w{1.0, v * dir[0], v * dir[1], v * dir[2], pr};
            hd.push_back(srhd::prim_to_cons(w, eos_h));
            const auto r = srhd::cons_to_prim(hd.back(), eos_h);
            iters = r.iterations;
            floored = r.floored;
            rho = r.prim.rho;
          } else {
            srmhd::Prim w;
            w.rho = 1.0;
            w.vx = v * dir[0];
            w.vy = v * dir[1];
            w.vz = v * dir[2];
            w.p = pr;
            // sigma ~ 1 field oblique to the flow.
            w.bx = 0.6;
            w.by = -0.7;
            w.bz = 0.2;
            md.push_back(srmhd::prim_to_cons(w, eos_h));
            const auto r = srmhd::cons_to_prim(md.back(), eos_h);
            iters = r.iterations;
            floored = r.floored;
            rho = r.prim.rho;
          }
          zone.iterations += iters;
          zone.max_iterations =
              std::max<long long>(zone.max_iterations, iters);
          zone.failures += floored ? 1 : 0;
          if (!floored) {
            zone.worst_err = std::max(zone.worst_err, std::abs(rho - 1.0));
          }
        }
      }
      const std::size_t cases = mhd ? md.size() : hd.size();

      // The row's states cycled to kTimedZones zones; the first `cases`
      // zones are the row itself, solved as one batch for the counts.
      std::vector<std::vector<double>> w(9, std::vector<double>(kTimedZones));
      srhd::kernels::BatchStats batch;
      double zone_ns = 0.0;
      double batched_ns = 0.0;
      if (!mhd) {
        const srhd::Con2PrimOptions opt;
        auto u = columns(hd, kTimedZones,
                         std::array{&srhd::Cons::d, &srhd::Cons::sx,
                                    &srhd::Cons::sy, &srhd::Cons::sz,
                                    &srhd::Cons::tau});
        auto solve = [&](std::size_t n) {
          return srhd::kernels::simd::cons_to_prim_n(
              n, u[0].data(), u[1].data(), u[2].data(), u[3].data(),
              u[4].data(), w[0].data(), w[1].data(), w[2].data(), w[3].data(),
              w[4].data(), eos_h.gamma(), opt);
        };
        batch = solve(cases);
        batched_ns = ns_per_zone([&] { (void)solve(kTimedZones); });
        zone_ns = ns_per_zone([&] {
          for (std::size_t i = 0; i < kTimedZones; ++i) {
            w[0][i] = srhd::cons_to_prim(hd[i % cases], eos_h, opt).prim.rho;
          }
        });
      } else {
        const srmhd::Con2PrimOptions opt;
        auto u = columns(
            md, kTimedZones,
            std::array{&srmhd::Cons::d, &srmhd::Cons::sx, &srmhd::Cons::sy,
                       &srmhd::Cons::sz, &srmhd::Cons::tau, &srmhd::Cons::bx,
                       &srmhd::Cons::by, &srmhd::Cons::bz, &srmhd::Cons::psi});
        auto solve = [&](std::size_t n) {
          const auto s = srmhd::kernels::simd::cons_to_prim_n(
              n, u[0].data(), u[1].data(), u[2].data(), u[3].data(),
              u[4].data(), u[5].data(), u[6].data(), u[7].data(), u[8].data(),
              w[0].data(), w[1].data(), w[2].data(), w[3].data(), w[4].data(),
              w[5].data(), w[6].data(), w[7].data(), w[8].data(),
              eos_h.gamma(), opt);
          return srhd::kernels::BatchStats{s.total_iterations, s.failures};
        };
        batch = solve(cases);
        batched_ns = ns_per_zone([&] { (void)solve(kTimedZones); });
        zone_ns = ns_per_zone([&] {
          for (std::size_t i = 0; i < kTimedZones; ++i) {
            w[0][i] = srmhd::cons_to_prim(md[i % cases], eos_h, opt).prim.rho;
          }
        });
      }
      if (batch.total_iterations != zone.iterations ||
          batch.failures != zone.failures) {
        std::cerr << "T4: batched c2p disagrees with the per-zone solve ("
                  << (mhd ? "srmhd" : "srhd") << ", W=" << W
                  << "): iterations " << batch.total_iterations << " vs "
                  << zone.iterations << ", failures " << batch.failures
                  << " vs " << zone.failures << "\n";
        agree = false;
      }
      table.add_row({std::string(mhd ? "srmhd" : "srhd"), W,
                     static_cast<double>(zone.iterations) /
                         static_cast<double>(cases),
                     zone.max_iterations, zone.failures, zone.worst_err,
                     zone_ns, batched_ns});
    }
  }
  bench::emit(table, "t4_con2prim");
  return agree ? 0 : 1;
}
