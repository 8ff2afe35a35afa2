#pragma once
// Conservative-to-primitive recovery for SRHD — the stiff nonlinear kernel
// at the heart of every relativistic HRSC step (experiment T4). We solve a
// 1D root problem in the pressure:
//     f(p) = p_eos(rho(p), eps(p)) - p = 0
// with  v^2(p) = S^2 / (E + p)^2,  E = tau + D,
//       W = (1 - v^2)^{-1/2},  rho = D / W,  h = (E + p) / (D W),
//       eps = h - 1 - p / rho.
// Newton iteration with the standard analytic slope df/dp = v^2 cs^2 - 1,
// guarded by a bisection bracket so pathological states still converge.
// Failures are *reported*, never thrown; callers apply the atmosphere
// policy (floors) and continue — matching production HRSC practice.
//
// Implementation is header-inline so the scalar/SIMD kernel TUs compile it
// under their own flags (same rationale as state.hpp). The residual, the
// admissibility test and the initial bracket are detail:: bodies shared
// with the lane-wise tile solver of kernels::{scalar,simd}::cons_to_prim_n,
// which runs this exact operation sequence over a tile of zones in lockstep
// (branches turned into selects), so the batched and the per-zone solve
// agree bit for bit. cons_to_prim below stays the per-zone spec.

#include <algorithm>
#include <cmath>

#include "rshc/check/check.hpp"
#include "rshc/common/math.hpp"
#include "rshc/srhd/state.hpp"

namespace rshc::srhd {

struct Con2PrimOptions {
  double tolerance = 1e-12;   ///< relative tolerance on f(p)/max(p, floor)
  int max_iterations = 60;
  double rho_floor = 1e-14;   ///< atmosphere rest-mass density
  double p_floor = 1e-16;     ///< atmosphere pressure
};

struct Con2PrimResult {
  Prim prim;
  int iterations = 0;
  bool converged = false;
  bool floored = false;  ///< atmosphere policy was applied
};

namespace detail {

/// Residual f(p) plus the primitive state implied by p.
struct C2PResidual {
  double f = 0.0;
  double df = -1.0;  // analytic approximate slope
  Prim prim;
  bool physical = false;
};

/// Branch-free: every quantity is computed whatever p is, and `physical`
/// says whether they mean anything (callers ignore the rest otherwise).
/// The per-zone solve and the lane-wise tile solver in the batched kernels
/// both call this one body, so they run the same operation sequence.
inline C2PResidual c2p_evaluate(const Cons& u, double p,
                                const eos::IdealGas& eos) {
  const double E = u.tau + u.d;
  const double Ep = E + p;
  const double s2 = u.s_sq();
  const double v2 = s2 / (Ep * Ep);
  const double W = 1.0 / std::sqrt(1.0 - v2);
  const double rho = u.d / W;
  const double h = Ep / (u.d * W);
  const double eps = h - 1.0 - p / rho;
  const double p_eos = eos.pressure(rho, eps);
  const double cs2 = eos.gamma() * p_eos / (rho * h);
  C2PResidual r;
  r.f = p_eos - p;
  r.df = v2 * cs2 - 1.0;
  r.prim = Prim{rho, u.sx / Ep, u.sy / Ep, u.sz / Ep, p};
  // Bitwise & so no branch (and no bool phi the vectorizer cannot mask).
  r.physical = !(Ep <= 0.0) & !(v2 >= 1.0) & !(rho <= 0.0);
  return r;
}

/// Zones the solve never starts on: evacuated or non-finite.
inline bool c2p_admissible(const Cons& u, const Con2PrimOptions& opt) {
  const bool d_ok = is_finite(u.d);
  const bool tau_ok = is_finite(u.tau);
  const bool s_ok = is_finite(u.s_sq());
  return (u.d > opt.rho_floor) & d_ok & tau_ok & s_ok;
}

/// Initial bisection bracket [lo, hi] and Newton guess p.
struct C2PBracket {
  double lo = 0.0;
  double hi = 0.0;
  double p = 0.0;
};

inline C2PBracket c2p_bracket(const Cons& u, const eos::IdealGas& eos,
                              const Con2PrimOptions& opt) {
  const double E = u.tau + u.d;
  const double s_abs = std::sqrt(u.s_sq());
  // Physicality requires E + p > |S| (subluminal velocity); start the
  // bracket just above the causal minimum.
  const double p_min = max_of(
      opt.p_floor, s_abs - E + 1e-14 * max_of(1.0, std::abs(E)));
  // Upper bound: generous multiple of the zero-velocity ideal-gas pressure.
  const double p_max =
      max_of(2.0 * p_min, 2.0 * (eos.gamma() - 1.0) * std::abs(E)) + 1.0;
  // Initial guess: zero-velocity ideal-gas estimate clipped into bracket
  // (std::clamp is min(max(v, lo), hi)).
  const double p0 = min_of(max_of((eos.gamma() - 1.0) * u.tau, p_min), p_max);
  return {p_min, p_max, p0};
}

}  // namespace detail

/// Recover primitives from conservatives. Always returns a usable Prim:
/// when the root solve fails or the state is unphysical, the atmosphere
/// floor is applied and `floored` is set.
[[nodiscard]] inline Con2PrimResult cons_to_prim(
    const Cons& u, const eos::IdealGas& eos, const Con2PrimOptions& opt = {}) {
  Con2PrimResult out;
  const Prim atmo{opt.rho_floor, 0.0, 0.0, 0.0, opt.p_floor};

  // Evacuated or invalid zones go straight to atmosphere.
  if (!detail::c2p_admissible(u, opt)) {
    out.prim = atmo;
    out.floored = true;
    RSHC_CHECK_PRIM("srhd.con2prim", out.prim, -1, -1, -1, -1);
    return out;
  }

  const detail::C2PBracket b = detail::c2p_bracket(u, eos, opt);
  if (!detail::c2p_evaluate(u, b.lo, eos).physical) {
    out.prim = atmo;
    out.floored = true;
    RSHC_CHECK_PRIM("srhd.con2prim", out.prim, -1, -1, -1, -1);
    return out;
  }

  double p = b.p;
  double lo = b.lo;
  double hi = b.hi;

  for (int it = 0; it < opt.max_iterations; ++it) {
    out.iterations = it + 1;
    const detail::C2PResidual r = detail::c2p_evaluate(u, p, eos);
    if (!r.physical) {
      p = 0.5 * (lo + hi);
      continue;
    }
    const double scale = std::max({std::abs(p), opt.p_floor, 1e-30});
    if (std::abs(r.f) <= opt.tolerance * scale) {
      out.prim = r.prim;
      out.prim.rho = std::max(out.prim.rho, opt.rho_floor);
      out.prim.p = std::max(out.prim.p, opt.p_floor);
      out.converged = true;
      // Whatever the root solve did, what leaves c2p must be physical —
      // including the floored components (a misconfigured atmosphere is a
      // checkable bug, not a recoverable state).
      RSHC_CHECK_PRIM("srhd.con2prim", out.prim, -1, -1, -1, -1);
      return out;
    }
    // Maintain the bisection bracket: f decreases in p near the root
    // (df < 0), so f > 0 means the root lies above p.
    if (r.f > 0.0) {
      lo = std::max(lo, p);
    } else {
      hi = std::min(hi, p);
    }
    double p_next = p - r.f / r.df;  // Newton
    if (!(p_next > lo && p_next < hi) || !std::isfinite(p_next)) {
      p_next = 0.5 * (lo + hi);  // bisection fallback
    }
    p = p_next;
  }

  out.prim = atmo;
  out.floored = true;
  out.converged = false;
  RSHC_CHECK_PRIM("srhd.con2prim", out.prim, -1, -1, -1, -1);
  return out;
}

}  // namespace rshc::srhd
