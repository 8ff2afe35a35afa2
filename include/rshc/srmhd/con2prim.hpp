#pragma once
// SRMHD conservative-to-primitive recovery: 1D Newton solve on
// z = rho h W^2 (the "1D_W" scheme of Mignone & McKinney 2007). With
//   vB(z)  = (S.B)/z
//   v^2(z) = [S^2 + (S.B)^2 (2z + B^2)/z^2] / (z + B^2)^2
//   W(z)   = (1 - v^2)^{-1/2},  rho = D/W
//   p(z)   = (Gamma-1)/Gamma * (z/W^2 - D/W)        (ideal gas)
// the energy equation becomes the scalar residual
//   f(z) = z - p(z) + B^2/2 (1 + v^2(z)) - (S.B)^2/(2 z^2) - (tau + D) = 0
// solved by safeguarded Newton (numerical derivative) inside an expanding
// bracket. Same failure policy as SRHD: report + atmosphere, never throw.
//
// The per-zone cons_to_prim is compiled once in con2prim.cpp. Its residual,
// bracket and converged-state bodies are the header-inline detail::
// functions below, shared with the lane-wise tile solver of
// kernels::simd::cons_to_prim_n (src/srmhd/kernels_simd.cpp), which runs the
// same operation sequence over a tile of zones in lockstep — the batched
// and the per-zone solve agree bit for bit.

#include <cmath>

#include "rshc/common/math.hpp"
#include "rshc/srmhd/state.hpp"

namespace rshc::srmhd {

struct Con2PrimOptions {
  double tolerance = 1e-12;
  int max_iterations = 80;
  double rho_floor = 1e-14;
  double p_floor = 1e-16;
};

struct Con2PrimResult {
  Prim prim;
  int iterations = 0;
  bool converged = false;
  bool floored = false;
};

namespace detail {

/// f(z) and the state implied by z.
struct ZState {
  double f = 0.0;
  double W = 1.0;
  double p = 0.0;
  bool physical = false;
};

/// Branch-free: every quantity is computed whatever z is, and `physical`
/// says whether they mean anything (callers ignore the rest otherwise).
/// The per-zone solve (con2prim.cpp) and the lane-wise tile solver in the
/// batched kernel both call this one body, so they run the same operation
/// sequence.
inline ZState c2p_evaluate(const Cons& u, double z, const eos::IdealGas& eos) {
  const double B2 = u.b_sq();
  const double SB = u.s_dot_b();
  const double zB = z + B2;
  const double v2 =
      (u.s_sq() + SB * SB * (2.0 * z + B2) / (z * z)) / (zB * zB);
  const double W = 1.0 / std::sqrt(1.0 - v2);
  const double rho = u.d / W;
  const double p =
      (eos.gamma() - 1.0) / eos.gamma() * (z / (W * W) - u.d / W);
  const double E = u.tau + u.d;
  ZState r;
  r.f = z - p + 0.5 * B2 * (1.0 + v2) - 0.5 * SB * SB / (z * z) - E;
  r.W = W;
  r.p = p;
  // Bitwise & so no branch (and no bool phi the vectorizer cannot mask).
  r.physical = !(z <= 0.0) & !(v2 >= 1.0) & !(v2 < 0.0) & !(rho <= 0.0);
  return r;
}

/// Bracket bookkeeping treats an unphysical z as below the root.
inline bool below_root(const ZState& s) { return !s.physical | (s.f < 0.0); }

/// Zones the solve never starts on: evacuated or non-finite.
inline bool c2p_admissible(const Cons& u, const Con2PrimOptions& opt) {
  const bool d_ok = is_finite(u.d);
  const bool tau_ok = is_finite(u.tau);
  const bool s_ok = is_finite(u.s_sq());
  const bool b_ok = is_finite(u.b_sq());
  return (u.d > opt.rho_floor) & d_ok & tau_ok & s_ok & b_ok;
}

/// Initial bracket: z_lo just below D, z_hi a first guess that the caller
/// doubles until it lies above the root.
inline double c2p_z_lo(const Cons& u) {
  return max_of(u.d * (1.0 - 1e-12), 1e-30);
}
inline double c2p_z_hi(const Cons& u, double z_lo) {
  return max_of(2.0 * z_lo, 2.0 * std::abs(u.tau + u.d) + u.b_sq() + 1.0);
}

/// The atmosphere: the fluid reset to the floors, B and psi kept (they are
/// directly evolved and divergence-constrained).
inline Prim c2p_atmosphere(const Cons& u, const Con2PrimOptions& opt) {
  Prim w;
  w.rho = opt.rho_floor;
  w.p = opt.p_floor;
  w.bx = u.bx;
  w.by = u.by;
  w.bz = u.bz;
  w.psi = u.psi;
  return w;
}

/// The primitive state at the converged root z (W and p from its ZState).
inline Prim c2p_prim(const Cons& u, double z, double W, double p,
                     const Con2PrimOptions& opt) {
  const double SB = u.s_dot_b();
  const double B2 = u.b_sq();
  Prim w;
  w.rho = max_of(u.d / W, opt.rho_floor);
  w.p = max_of(p, opt.p_floor);
  const double vB = SB / z;
  // Invert S = (z + B^2) v - (v.B) B  =>  v = (S + vB * B) / (z + B^2).
  w.vx = (u.sx + vB * u.bx) / (z + B2);
  w.vy = (u.sy + vB * u.by) / (z + B2);
  w.vz = (u.sz + vB * u.bz) / (z + B2);
  w.bx = u.bx;
  w.by = u.by;
  w.bz = u.bz;
  w.psi = u.psi;
  return w;
}

}  // namespace detail

[[nodiscard]] Con2PrimResult cons_to_prim(const Cons& u,
                                          const eos::IdealGas& eos,
                                          const Con2PrimOptions& opt = {});

}  // namespace rshc::srmhd
