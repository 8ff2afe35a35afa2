// Batched SRMHD kernels, compiled -O3 (-march=native when enabled) with
// -ffp-contract=off -fno-math-errno -fno-trapping-math.
//
// cons_to_prim_n is a lane-wise tile solver: the zones of a tile run the
// 1D-W bracket expansion and Newton solve in lockstep, one branch-free pass
// over the tile per step. Every lane runs exactly the per-zone
// cons_to_prim operation sequence of con2prim.cpp — both call the
// header-inline srmhd::detail bodies (residual, bracket, converged state),
// and the per-zone branches become selects here — so the outputs, the
// iteration counts and the floor counts are bitwise those of the per-zone
// loop. The fast-speed bound is a per-zone loop over the header-inline
// max_signal_speed.

#include <algorithm>
#include <cmath>

#include "rshc/check/check.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace rshc::srmhd::kernels::simd {
namespace {

// Zones per tile. Per-lane state is all double: GCC 12 finds no vector type
// for a loop that mixes bool or integer arrays with double ones.
constexpr std::size_t kC2PTile = 64;

struct C2PTile {
  alignas(64) double d[kC2PTile];
  alignas(64) double sx[kC2PTile];
  alignas(64) double sy[kC2PTile];
  alignas(64) double sz[kC2PTile];
  alignas(64) double tau[kC2PTile];
  alignas(64) double bx[kC2PTile];
  alignas(64) double by[kC2PTile];
  alignas(64) double bz[kC2PTile];
  alignas(64) double z[kC2PTile];
  alignas(64) double lo[kC2PTile];
  alignas(64) double hi[kC2PTile];
  alignas(64) double iters[kC2PTile];
  alignas(64) double admissible[kC2PTile];
  alignas(64) double expanding[kC2PTile];  ///< 1.0 while z_hi is doubled
  alignas(64) double live[kC2PTile];       ///< 1.0 while Newton runs
  alignas(64) double converged[kC2PTile];  ///< 1.0 once the root is found
  alignas(64) double W_o[kC2PTile];        ///< W and p at the root
  alignas(64) double p_o[kC2PTile];
};

Cons lane_cons(const C2PTile& t, std::size_t l) {
  Cons u;
  u.d = t.d[l];
  u.sx = t.sx[l];
  u.sy = t.sy[l];
  u.sz = t.sz[l];
  u.tau = t.tau[l];
  u.bx = t.bx[l];
  u.by = t.by[l];
  u.bz = t.bz[l];
  return u;
}

bool any_set(const double* flag) {
  double any = 0.0;
  for (std::size_t l = 0; l < kC2PTile; ++l) any += flag[l];
  return any != 0.0;
}

// eos and opt by value: copies the tile stores provably do not alias, so
// their fields stay loop-invariant.
void c2p_tile(C2PTile& t, const eos::IdealGas eos,
              const Con2PrimOptions opt) {
  // Entry: admissibility, initial bracket, first upper-end probe.
  // rshc: must-vectorize
  for (std::size_t l = 0; l < kC2PTile; ++l) {
    const Cons u = lane_cons(t, l);
    const bool admissible = detail::c2p_admissible(u, opt);
    const double z_lo = detail::c2p_z_lo(u);
    const double z_hi = detail::c2p_z_hi(u, z_lo);
    const bool below = detail::below_root(detail::c2p_evaluate(u, z_hi, eos));
    t.lo[l] = z_lo;
    t.hi[l] = z_hi;
    t.iters[l] = 0.0;
    t.admissible[l] = admissible ? 1.0 : 0.0;
    t.expanding[l] = admissible & below ? 1.0 : 0.0;
    t.converged[l] = 0.0;
    t.W_o[l] = 1.0;
    t.p_o[l] = 0.0;
  }
  // Expand the upper end until it is physical with f > 0: at most 200
  // doublings, as in the per-zone solve.
  for (int guard = 0; guard < 200 && any_set(t.expanding); ++guard) {
    // rshc: must-vectorize
    for (std::size_t l = 0; l < kC2PTile; ++l) {
      const Cons u = lane_cons(t, l);
      const bool expanding = t.expanding[l] != 0.0;
      const double z_hi = expanding ? t.hi[l] * 2.0 : t.hi[l];
      const bool below =
          detail::below_root(detail::c2p_evaluate(u, z_hi, eos));
      t.hi[l] = z_hi;
      t.expanding[l] = expanding & below ? 1.0 : 0.0;
    }
  }
  // Lanes still expanding after 200 doublings floor without iterating.
  for (std::size_t l = 0; l < kC2PTile; ++l) {
    const bool start = (t.admissible[l] != 0.0) & (t.expanding[l] == 0.0);
    t.live[l] = start ? 1.0 : 0.0;
    t.z[l] = 0.5 * (t.lo[l] + t.hi[l]);
  }
  for (int it = 0; it < opt.max_iterations && any_set(t.live); ++it) {
    const double count = it + 1;
    // rshc: must-vectorize
    for (std::size_t l = 0; l < kC2PTile; ++l) {
      const Cons u = lane_cons(t, l);
      const double z = t.z[l];
      const double lo = t.lo[l];
      const double hi = t.hi[l];
      const bool live = t.live[l] != 0.0;
      const double E = u.tau + u.d;
      const detail::ZState r = detail::c2p_evaluate(u, z, eos);
      // Unphysical: z is below the root; raise z_lo and bisect.
      const double lo_u = max_of(lo, z);
      const double z_u = 0.5 * (lo_u + hi);
      const double scale = max_of(std::abs(E), std::abs(z));
      const bool conv = r.physical & (std::abs(r.f) <= opt.tolerance * scale);
      // Physical, not converged: tighten the bracket, then Newton with a
      // numerical derivative or bisection. The per-zone z_next = 0 when
      // there is no usable slope never lies in (z_lo, z_hi) since
      // z_lo >= 1e-30, so `use` joins the bracket test directly.
      const bool below = r.f < 0.0;
      const double lo_p = below ? max_of(lo, z) : lo;
      const double hi_p = below ? hi : min_of(hi, z);
      const double dz = 1e-8 * max_of(1.0, std::abs(z));
      const detail::ZState rp = detail::c2p_evaluate(u, z + dz, eos);
      const double df = rp.f - r.f;
      const bool use = rp.physical & (std::abs(df) > 0.0);
      const double slope = df / dz;
      const double zt = z - r.f / slope;
      const bool zt_finite = is_finite(zt);
      const bool newton = use & (zt > lo_p) & (zt < hi_p) & zt_finite;
      const double z_p = newton ? zt : 0.5 * (lo_p + hi_p);
      const bool step = live & !conv;
      const bool hit = live & conv;
      const bool tighten = step & r.physical;
      const bool raise = step & !r.physical;
      t.iters[l] = live ? count : t.iters[l];
      t.lo[l] = tighten ? lo_p : (raise ? lo_u : lo);
      t.hi[l] = tighten ? hi_p : hi;
      t.z[l] = tighten ? z_p : (raise ? z_u : z);
      t.live[l] = step ? 1.0 : 0.0;
      t.converged[l] = hit ? 1.0 : t.converged[l];
      t.W_o[l] = hit ? r.W : t.W_o[l];
      t.p_o[l] = hit ? r.p : t.p_o[l];
    }
  }
}

}  // namespace

BatchStats cons_to_prim_n(std::size_t n, const double* d, const double* sx,
                          const double* sy, const double* sz,
                          const double* tau, const double* ubx,
                          const double* uby, const double* ubz,
                          const double* upsi, double* rho, double* vx,
                          double* vy, double* vz, double* p, double* bx,
                          double* by, double* bz, double* psi, double gamma,
                          const Con2PrimOptions& opt) {
  const eos::IdealGas eos(gamma);
  BatchStats stats;
  C2PTile t;
  for (std::size_t base = 0; base < n; base += kC2PTile) {
    const std::size_t m = std::min(kC2PTile, n - base);
    // Lanes past the end of a short tile hold D = 0: not admissible, so
    // they never expand or go live.
    for (std::size_t l = 0; l < kC2PTile; ++l) {
      const bool in = l < m;
      t.d[l] = in ? d[base + l] : 0.0;
      t.sx[l] = in ? sx[base + l] : 0.0;
      t.sy[l] = in ? sy[base + l] : 0.0;
      t.sz[l] = in ? sz[base + l] : 0.0;
      t.tau[l] = in ? tau[base + l] : 0.0;
      t.bx[l] = in ? ubx[base + l] : 0.0;
      t.by[l] = in ? uby[base + l] : 0.0;
      t.bz[l] = in ? ubz[base + l] : 0.0;
    }
    c2p_tile(t, eos, opt);
    for (std::size_t l = 0; l < m; ++l) {
      const std::size_t i = base + l;
      Cons u = lane_cons(t, l);
      u.psi = upsi[i];
      const bool converged = t.converged[l] != 0.0;
      const Prim w =
          converged ? detail::c2p_prim(u, t.z[l], t.W_o[l], t.p_o[l], opt)
                    : detail::c2p_atmosphere(u, opt);
      stats.failures += converged ? 0 : 1;
      stats.total_iterations += static_cast<long long>(t.iters[l]);
#if RSHC_CHECKS_ENABLED
      RSHC_CHECK_PRIM("srmhd.con2prim", w, -1, -1, -1, -1);
#endif
      rho[i] = w.rho;
      vx[i] = w.vx;
      vy[i] = w.vy;
      vz[i] = w.vz;
      p[i] = w.p;
      bx[i] = w.bx;
      by[i] = w.by;
      bz[i] = w.bz;
      psi[i] = w.psi;
    }
  }
  return stats;
}

void max_speed_n(std::size_t n, const double* rho, const double* vx,
                 const double* vy, const double* vz, const double* p,
                 const double* bx, const double* by, const double* bz,
                 const double* psi, double* speed, double gamma, int ndim) {
  const eos::IdealGas eos(gamma);
  for (std::size_t i = 0; i < n; ++i) {
    Prim w;
    w.rho = rho[i];
    w.vx = vx[i];
    w.vy = vy[i];
    w.vz = vz[i];
    w.p = p[i];
    w.bx = bx[i];
    w.by = by[i];
    w.bz = bz[i];
    w.psi = psi[i];
    speed[i] = max_signal_speed(w, eos, ndim);
  }
}

}  // namespace rshc::srmhd::kernels::simd
