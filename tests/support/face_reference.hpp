#pragma once
// Per-interface approximate Riemann solvers, written as plain branchy
// struct code: the test oracle the lane-wise face kernels
// (src/riemann/faces_simd.cpp) are pinned against bitwise. Each solver is
// the most literal reading of its scheme (an `if` per upwind case, the
// HLLC contact root picked by a branch, the star state built from a side
// reference); the kernels turn every branch into a select over candidates
// they all compute, so any ulp of drift between the two means a kernel
// reordered or reassociated something.
//
// Bits: test TUs compile with the tree-default flags (no FMA contraction
// on the x86-64 baseline), the kernels with -ffp-contract=off, so both
// evaluate the same correctly rounded operation sequence.

#include <algorithm>
#include <cmath>

#include "rshc/eos/ideal_gas.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/srhd/state.hpp"
#include "rshc/srmhd/glm.hpp"
#include "rshc/srmhd/state.hpp"

namespace rshc::testsupport::face_reference {

/// Rescale a velocity vector to |v| <= vmax (< 1), preserving direction.
template <typename P>
inline void cap_velocity(P& w, double vmax) {
  const double v2 = w.v_sq();
  if (v2 >= vmax * vmax) {
    const double scale = vmax / std::sqrt(v2);
    w.vx *= scale;
    w.vy *= scale;
    w.vz *= scale;
  }
}

/// Sanitize a reconstructed face state before the Riemann solve: positivity
/// floors on rho and p, |v| capped strictly below 1.
template <typename P>
inline void limit_face(P& w, double rho_floor, double p_floor) {
  w.rho = std::max(w.rho, rho_floor);
  w.p = std::max(w.p, p_floor);
  cap_velocity(w, 1.0 - 1e-10);
}

/// One side of an SRHD interface: primitive state plus everything the
/// approximate solvers consume (conservatives, physical flux, acoustic
/// signal speeds).
struct SrhdSide {
  srhd::Prim w;
  srhd::Cons u;
  srhd::Cons f;
  srhd::SignalSpeeds s;
};

inline SrhdSide srhd_side(const srhd::Prim& w, int axis,
                          const eos::IdealGas& eos) {
  SrhdSide p;
  p.w = w;
  p.u = srhd::prim_to_cons(w, eos);
  p.f = srhd::flux(w, p.u, axis);
  p.s = srhd::signal_speeds(w, axis, eos);
  return p;
}

inline srhd::Cons llf(const SrhdSide& l, const SrhdSide& r) {
  const double a =
      std::max({std::abs(l.s.lambda_minus), std::abs(l.s.lambda_plus),
                std::abs(r.s.lambda_minus), std::abs(r.s.lambda_plus)});
  return 0.5 * (l.f + r.f) + (-0.5 * a) * (r.u - l.u);
}

inline srhd::Cons hll(const SrhdSide& l, const SrhdSide& r) {
  const double sl = std::min({0.0, l.s.lambda_minus, r.s.lambda_minus});
  const double sr = std::max({0.0, l.s.lambda_plus, r.s.lambda_plus});
  if (sl >= 0.0) return l.f;
  if (sr <= 0.0) return r.f;
  const double inv = 1.0 / (sr - sl);
  return inv * ((sr * l.f) + (-sl) * r.f + (sl * sr) * (r.u - l.u));
}

/// The branches one HLLC solve took, for coverage checks.
struct HllcPath {
  bool left_fan = false;   ///< sl >= 0: the left flux
  bool right_fan = false;  ///< sr <= 0: the right flux
  bool linear = false;     ///< |a| ~ 0: the linear contact root -c/b
  bool clamp_lo = false;   ///< the contact root clamped up to sl
  bool clamp_hi = false;   ///< the contact root clamped down to sr
  bool star_left = false;  ///< lambda* >= 0: the left star state
};

/// Mignone & Bodo (2005) HLLC. Works with the *total* energy E = tau + D
/// (whose flux is the normal momentum) and converts back at the end.
inline srhd::Cons hllc(const SrhdSide& l, const SrhdSide& r, int axis,
                       HllcPath* path = nullptr) {
  HllcPath ignored;
  HllcPath& took = path != nullptr ? *path : ignored;
  const double sl = std::min(l.s.lambda_minus, r.s.lambda_minus);
  const double sr = std::max(l.s.lambda_plus, r.s.lambda_plus);
  took.left_fan = sl >= 0.0;
  took.right_fan = !took.left_fan && sr <= 0.0;
  if (sl >= 0.0) return l.f;
  if (sr <= 0.0) return r.f;

  // HLL-averaged state and flux of (E, m_n).
  const double inv = 1.0 / (sr - sl);
  auto hll_avg = [&](double ul, double ur, double fl, double fr) {
    return (sr * ur - sl * ul + fl - fr) * inv;
  };
  auto hll_flux = [&](double ul, double ur, double fl, double fr) {
    return (sr * fl - sl * fr + sl * sr * (ur - ul)) * inv;
  };

  const double El = l.u.tau + l.u.d;
  const double Er = r.u.tau + r.u.d;
  const double fEl = l.f.tau + l.f.d;  // = m_n,L
  const double fEr = r.f.tau + r.f.d;
  const double ml = l.u.s(axis);
  const double mr = r.u.s(axis);
  const double fml = l.f.s(axis);
  const double fmr = r.f.s(axis);

  const double E_h = hll_avg(El, Er, fEl, fEr);
  const double m_h = hll_avg(ml, mr, fml, fmr);
  const double fE_h = hll_flux(El, Er, fEl, fEr);
  const double fm_h = hll_flux(ml, mr, fml, fmr);

  // Contact speed: the physical root of
  //   fE_h lam^2 - (E_h + fm_h) lam + m_h = 0.
  double lam_star;
  const double a = fE_h;
  const double b = -(E_h + fm_h);
  const double c = m_h;
  if (std::abs(a) > 1e-12 * std::max(std::abs(b), 1.0)) {
    const double disc = std::max(0.0, b * b - 4.0 * a * c);
    // Minus root (Mignone & Bodo 2005, eq. 18) is the causal one.
    lam_star = (-b - std::sqrt(disc)) / (2.0 * a);
  } else {
    lam_star = -c / b;
    took.linear = true;
  }
  took.clamp_lo = lam_star < sl;
  took.clamp_hi = sr < lam_star;
  lam_star = std::clamp(lam_star, sl, sr);
  took.star_left = lam_star >= 0.0;

  const double p_star = fm_h - fE_h * lam_star;

  auto star_flux = [&](const SrhdSide& k, double sk) {
    const double vk = k.w.v(axis);
    const double Ek = k.u.tau + k.u.d;
    const double fac = (sk - vk) / (sk - lam_star);
    srhd::Cons star;
    star.d = k.u.d * fac;
    // Normal momentum gains the pressure jump; transverse just advect.
    const double mk = k.u.s(axis);
    const double m_star =
        (mk * (sk - vk) + p_star - k.w.p) / (sk - lam_star);
    star.sx = k.u.sx * fac;
    star.sy = k.u.sy * fac;
    star.sz = k.u.sz * fac;
    switch (axis) {
      case 0: star.sx = m_star; break;
      case 1: star.sy = m_star; break;
      default: star.sz = m_star; break;
    }
    const double E_star =
        (Ek * (sk - vk) + p_star * lam_star - k.w.p * vk) / (sk - lam_star);
    star.tau = E_star - star.d;
    return k.f + sk * (star - k.u);
  };

  if (lam_star >= 0.0) return star_flux(l, sl);
  return star_flux(r, sr);
}

/// SRMHD HLL with the exact upwind GLM coupling for (B_n, psi).
inline srmhd::Cons srmhd_hll(const srmhd::Prim& wl, const srmhd::Prim& wr,
                             int axis, const eos::IdealGas& eos,
                             const srmhd::GlmParams& glm) {
  const srmhd::Cons ul = srmhd::prim_to_cons(wl, eos);
  const srmhd::Cons ur = srmhd::prim_to_cons(wr, eos);
  const srmhd::Cons fl = srmhd::flux(wl, ul, axis, eos);
  const srmhd::Cons fr = srmhd::flux(wr, ur, axis, eos);
  const srmhd::SignalSpeeds ssl = srmhd::fast_speeds(wl, axis, eos);
  const srmhd::SignalSpeeds ssr = srmhd::fast_speeds(wr, axis, eos);

  const double sl = std::min({0.0, ssl.lambda_minus, ssr.lambda_minus});
  const double sr = std::max({0.0, ssl.lambda_plus, ssr.lambda_plus});

  srmhd::Cons f;
  if (sl >= 0.0) {
    f = fl;
  } else if (sr <= 0.0) {
    f = fr;
  } else {
    const double inv = 1.0 / (sr - sl);
    f = inv * ((sr * fl) + (-sl) * fr + (sl * sr) * (ur - ul));
  }

  if (glm.enabled) {
    const double bn_l = wl.b(axis);
    const double bn_r = wr.b(axis);
    const auto g =
        srmhd::glm_interface_flux(bn_l, wl.psi, bn_r, wr.psi, glm.ch);
    switch (axis) {
      case 0: f.bx = g.flux_bn; break;
      case 1: f.by = g.flux_bn; break;
      default: f.bz = g.flux_bn; break;
    }
    f.psi = g.flux_psi;
  } else {
    f.psi = 0.0;
  }
  return f;
}

/// The oracle's solve_srhd: LLF / HLL / HLLC on unlimited states.
inline srhd::Cons solve_srhd(riemann::Solver s, const srhd::Prim& wl,
                             const srhd::Prim& wr, int axis,
                             const eos::IdealGas& eos) {
  const SrhdSide l = srhd_side(wl, axis, eos);
  const SrhdSide r = srhd_side(wr, axis, eos);
  switch (s) {
    case riemann::Solver::kLLF: return llf(l, r);
    case riemann::Solver::kHLL: return hll(l, r);
    default: return hllc(l, r, axis);
  }
}

}  // namespace rshc::testsupport::face_reference
