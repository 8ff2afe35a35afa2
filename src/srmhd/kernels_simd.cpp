// Batched SRMHD kernels, compiled -O3 (-march=native when enabled) with
// -ffp-contract=off.
//
// Unlike the SRHD kernels, the per-zone physics (cons_to_prim's 1D-W
// Newton solve, the fast-speed bound) is *not* header-inline: it lives in
// con2prim.cpp / state.cpp compiled once with default flags. The batched
// loops here therefore execute the per-zone arithmetic unchanged and
// differ only in how the SoA staging compiles — which is exactly the
// bitwise-identity contract the host pipeline needs.

#include "rshc/srmhd/kernels.hpp"

namespace rshc::srmhd::kernels::simd {

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
  for (std::size_t i = 0; i < n; ++i) {
    Cons u;
    u.d = d[i];
    u.sx = sx[i];
    u.sy = sy[i];
    u.sz = sz[i];
    u.tau = tau[i];
    u.bx = ubx[i];
    u.by = uby[i];
    u.bz = ubz[i];
    u.psi = upsi[i];
    const Con2PrimResult r = cons_to_prim(u, eos, opt);
    rho[i] = r.prim.rho;
    vx[i] = r.prim.vx;
    vy[i] = r.prim.vy;
    vz[i] = r.prim.vz;
    p[i] = r.prim.p;
    bx[i] = r.prim.bx;
    by[i] = r.prim.by;
    bz[i] = r.prim.bz;
    psi[i] = r.prim.psi;
    stats.total_iterations += r.iterations;
    stats.failures += r.floored ? 1 : 0;
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
