// Batched face kernels, compiled -O3 (-march=native when enabled) with
// -ffp-contract=off -fno-math-errno -fno-trapping-math.
//
// Each kernel is one branch-free lane loop over a row of interfaces, which
// GCC vectorizes: limiter, prim->cons, flux, signal speeds and the
// LLF / HLL / HLLC / SRMHD HLL combination inline into the loop body, the
// axis is a template constant, and every branch of the scalar solve is a
// select between candidates that are all computed (the upwind cases, the
// HLLC contact root, its clamp, the star side). A lane runs exactly the
// operation sequence of the per-interface solve, in the same order, so it
// yields the same bits: IEEE sqrt and division are correctly rounded, and
// -ffp-contract=off forbids fusing mul+add. Discarded candidates may divide
// by zero or take the sqrt of a negative; with -fno-trapping-math that
// only produces values the select drops. tools/check_vectorized.py guards
// the vectorization, tests/test_faces_lanes.cpp the bits against the
// struct-based oracle (tests/support/face_reference.hpp).

#include <cmath>
#include <type_traits>

#include "rshc/common/error.hpp"
#include "rshc/common/math.hpp"
#include "rshc/riemann/face_solvers.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/srhd/state.hpp"
#include "rshc/srmhd/state.hpp"

namespace rshc::riemann {
namespace {

/// fn(std::integral_constant<int, axis>{}): the axis as a template constant.
template <typename Fn>
void with_axis(int axis, Fn&& fn) {
  switch (axis) {
    case 0: fn(std::integral_constant<int, 0>{}); break;
    case 1: fn(std::integral_constant<int, 1>{}); break;
    default: fn(std::integral_constant<int, 2>{}); break;
  }
}

/// c ? a : b per component.
inline srhd::Cons pick(bool c, const srhd::Cons& a, const srhd::Cons& b) {
  return {c ? a.d : b.d, c ? a.sx : b.sx, c ? a.sy : b.sy, c ? a.sz : b.sz,
          c ? a.tau : b.tau};
}

inline srmhd::Cons pick(bool c, const srmhd::Cons& a,
                        const srmhd::Cons& b) {
  return {c ? a.d : b.d,     c ? a.sx : b.sx, c ? a.sy : b.sy,
          c ? a.sz : b.sz,   c ? a.tau : b.tau, c ? a.bx : b.bx,
          c ? a.by : b.by,   c ? a.bz : b.bz, c ? a.psi : b.psi};
}

/// The HLL flux sl < 0 < sr between two sides, upwinded to the left flux
/// for sl >= 0 and to the right one for sr <= 0.
template <typename C>
inline C hll_combine(double sl, double sr, const C& ul, const C& ur,
                     const C& fl, const C& fr) {
  const double inv = 1.0 / (sr - sl);
  const C mid = inv * ((sr * fl) + (-sl) * fr + (sl * sr) * (ur - ul));
  return pick(sl >= 0.0, fl, pick(sr <= 0.0, fr, mid));
}

// ---------------------------------------------------------------------------
// SRHD
// ---------------------------------------------------------------------------

/// One side of an SRHD interface: primitive state plus everything the
/// approximate solvers consume (conservatives, physical flux, acoustic
/// signal speeds along Axis).
struct SrhdSide {
  srhd::Prim w;
  srhd::Cons u;
  srhd::Cons f;
  srhd::SignalSpeeds s;
};

template <int Axis>
inline SrhdSide srhd_side(const srhd::Prim& w, const eos::IdealGas& eos) {
  SrhdSide k;
  k.w = w;
  k.u = srhd::prim_to_cons(w, eos);
  k.f = srhd::flux(w, k.u, Axis);
  k.s = srhd::signal_speeds(w, Axis, eos);
  return k;
}

inline srhd::Cons llf(const SrhdSide& l, const SrhdSide& r) {
  const double a =
      max_of(max_of(max_of(std::abs(l.s.lambda_minus),
                           std::abs(l.s.lambda_plus)),
                    std::abs(r.s.lambda_minus)),
             std::abs(r.s.lambda_plus));
  return 0.5 * (l.f + r.f) + (-0.5 * a) * (r.u - l.u);
}

inline srhd::Cons hll(const SrhdSide& l, const SrhdSide& r) {
  const double sl = min_of(min_of(0.0, l.s.lambda_minus), r.s.lambda_minus);
  const double sr = max_of(max_of(0.0, l.s.lambda_plus), r.s.lambda_plus);
  return hll_combine(sl, sr, l.u, r.u, l.f, r.f);
}

/// Mignone & Bodo (2005) HLLC. Works with the *total* energy E = tau + D
/// (whose flux is the normal momentum) and converts back at the end.
template <int Axis>
inline srhd::Cons hllc(const SrhdSide& l, const SrhdSide& r) {
  const double sl = min_of(l.s.lambda_minus, r.s.lambda_minus);
  const double sr = max_of(l.s.lambda_plus, r.s.lambda_plus);

  // HLL-averaged state and flux of (E, m_n).
  const double inv = 1.0 / (sr - sl);
  const auto hll_avg = [&](double ul, double ur, double fl, double fr) {
    return (sr * ur - sl * ul + fl - fr) * inv;
  };
  const auto hll_flux = [&](double ul, double ur, double fl, double fr) {
    return (sr * fl - sl * fr + sl * sr * (ur - ul)) * inv;
  };

  const double El = l.u.tau + l.u.d;
  const double Er = r.u.tau + r.u.d;
  const double fEl = l.f.tau + l.f.d;  // = m_n,L
  const double fEr = r.f.tau + r.f.d;
  const double ml = l.u.s(Axis);
  const double mr = r.u.s(Axis);
  const double fml = l.f.s(Axis);
  const double fmr = r.f.s(Axis);

  const double E_h = hll_avg(El, Er, fEl, fEr);
  const double m_h = hll_avg(ml, mr, fml, fmr);
  const double fE_h = hll_flux(El, Er, fEl, fEr);
  const double fm_h = hll_flux(ml, mr, fml, fmr);

  // Contact speed: the physical root of
  //   fE_h lam^2 - (E_h + fm_h) lam + m_h = 0,
  // the minus root of the quadratic (Mignone & Bodo 2005, eq. 18, the
  // causal one) or the linear root -c/b when fE_h vanishes.
  const double a = fE_h;
  const double b = -(E_h + fm_h);
  const double c = m_h;
  const bool quadratic = std::abs(a) > 1e-12 * max_of(std::abs(b), 1.0);
  const double disc = max_of(0.0, b * b - 4.0 * a * c);
  const double lam_quadratic = (-b - std::sqrt(disc)) / (2.0 * a);
  const double lam_linear = -c / b;
  const double lam_star =
      clamp_of(quadratic ? lam_quadratic : lam_linear, sl, sr);

  const double p_star = fm_h - fE_h * lam_star;

  // Star state on the upwind side of the contact: pick that side's inputs,
  // then run the star arithmetic once.
  const bool left = lam_star >= 0.0;
  const double sk = left ? sl : sr;
  const srhd::Cons uk = pick(left, l.u, r.u);
  const srhd::Cons fk = pick(left, l.f, r.f);
  const double vk = left ? l.w.v(Axis) : r.w.v(Axis);
  const double pk = left ? l.w.p : r.w.p;
  const double Ek = uk.tau + uk.d;
  const double fac = (sk - vk) / (sk - lam_star);
  srhd::Cons star;
  star.d = uk.d * fac;
  // Normal momentum gains the pressure jump; transverse just advect.
  const double mk = uk.s(Axis);
  const double m_star = (mk * (sk - vk) + p_star - pk) / (sk - lam_star);
  star.sx = Axis == 0 ? m_star : uk.sx * fac;
  star.sy = Axis == 1 ? m_star : uk.sy * fac;
  star.sz = Axis == 2 ? m_star : uk.sz * fac;
  const double E_star =
      (Ek * (sk - vk) + p_star * lam_star - pk * vk) / (sk - lam_star);
  star.tau = E_star - star.d;
  const srhd::Cons f_star = fk + sk * (star - uk);

  return pick(sl >= 0.0, l.f, pick(sr <= 0.0, r.f, f_star));
}

// The row kernels are the unit GCC vectorizes. flatten inlines every
// physics call into the loop body (the SRMHD maps are too large for the
// inliner's own heuristics), noinline keeps each instantiation a function
// of its own (inlined into the dispatch, some copies stop if-converting).
// eos by value: a copy the flux stores provably do not alias, so gamma
// stays loop-invariant. The rows are distinct arrays (ivdep).
template <int Axis, Solver S, bool Limit>
[[gnu::flatten, gnu::noinline]] void srhd_row(
    std::size_t n, const double* const* wl, const double* const* wr,
    double* const* f, const eos::IdealGas eos, double rho_floor,
    double p_floor) {
#pragma GCC ivdep
  // rshc: must-vectorize
  for (std::size_t i = 0; i < n; ++i) {
    srhd::Prim a{wl[srhd::kRho][i], wl[srhd::kVx][i], wl[srhd::kVy][i],
                 wl[srhd::kVz][i], wl[srhd::kP][i]};
    srhd::Prim b{wr[srhd::kRho][i], wr[srhd::kVx][i], wr[srhd::kVy][i],
                 wr[srhd::kVz][i], wr[srhd::kP][i]};
    if constexpr (Limit) {
      detail::limit_face(a, rho_floor, p_floor);
      detail::limit_face(b, rho_floor, p_floor);
    }
    const SrhdSide l = srhd_side<Axis>(a, eos);
    const SrhdSide r = srhd_side<Axis>(b, eos);
    srhd::Cons flux;
    if constexpr (S == Solver::kLLF) {
      flux = llf(l, r);
    } else if constexpr (S == Solver::kHLL) {
      flux = hll(l, r);
    } else {
      flux = hllc<Axis>(l, r);
    }
    f[srhd::kD][i] = flux.d;
    f[srhd::kSx][i] = flux.sx;
    f[srhd::kSy][i] = flux.sy;
    f[srhd::kSz][i] = flux.sz;
    f[srhd::kTau][i] = flux.tau;
  }
}

template <bool Limit>
void srhd_faces(std::size_t n, int axis, Solver solver,
                const double* const* wl, const double* const* wr,
                double* const* f, const eos::IdealGas& eos, double rho_floor,
                double p_floor) {
  // The exact Godunov solve is iterative and per-interface by nature;
  // callers (SrhdPhysics::interface_flux_n, solve_srhd) take the scalar
  // path before reaching here.
  RSHC_REQUIRE(solver != Solver::kExact,
               "srhd_faces_n: exact solver has no batched kernel");
  with_axis(axis, [&](auto ax) {
    constexpr int kAxis = decltype(ax)::value;
    switch (solver) {
      case Solver::kLLF:
        srhd_row<kAxis, Solver::kLLF, Limit>(n, wl, wr, f, eos, rho_floor,
                                             p_floor);
        break;
      case Solver::kHLL:
        srhd_row<kAxis, Solver::kHLL, Limit>(n, wl, wr, f, eos, rho_floor,
                                             p_floor);
        break;
      default:
        srhd_row<kAxis, Solver::kHLLC, Limit>(n, wl, wr, f, eos, rho_floor,
                                              p_floor);
        break;
    }
  });
}

// ---------------------------------------------------------------------------
// SRMHD
// ---------------------------------------------------------------------------

/// SRMHD HLL with the exact upwind GLM coupling for (B_n, psi); without
/// GLM the psi flux is zero and F(B_n) keeps its HLL value.
template <int Axis, bool Glm>
inline srmhd::Cons srmhd_hll(const srmhd::Prim& wl, const srmhd::Prim& wr,
                             const eos::IdealGas& eos, double ch) {
  const srmhd::Cons ul = srmhd::prim_to_cons(wl, eos);
  const srmhd::Cons ur = srmhd::prim_to_cons(wr, eos);
  const srmhd::Cons fl = srmhd::flux(wl, ul, Axis, eos);
  const srmhd::Cons fr = srmhd::flux(wr, ur, Axis, eos);
  const srmhd::SignalSpeeds ssl = srmhd::fast_speeds(wl, Axis, eos);
  const srmhd::SignalSpeeds ssr = srmhd::fast_speeds(wr, Axis, eos);

  const double sl = min_of(min_of(0.0, ssl.lambda_minus), ssr.lambda_minus);
  const double sr = max_of(max_of(0.0, ssl.lambda_plus), ssr.lambda_plus);
  srmhd::Cons f = hll_combine(sl, sr, ul, ur, fl, fr);

  if constexpr (Glm) {
    const auto g = srmhd::glm_interface_flux(wl.b(Axis), wl.psi, wr.b(Axis),
                                             wr.psi, ch);
    if constexpr (Axis == 0) f.bx = g.flux_bn;
    if constexpr (Axis == 1) f.by = g.flux_bn;
    if constexpr (Axis == 2) f.bz = g.flux_bn;
    f.psi = g.flux_psi;
  } else {
    f.psi = 0.0;
  }
  return f;
}

template <int Axis, bool Glm, bool Limit>
[[gnu::flatten, gnu::noinline]] void srmhd_row(
    std::size_t n, const double* const* wl, const double* const* wr,
    double* const* f, const eos::IdealGas eos, double ch, double rho_floor,
    double p_floor) {
#pragma GCC ivdep
  // rshc: must-vectorize
  for (std::size_t i = 0; i < n; ++i) {
    srmhd::Prim a{wl[srmhd::kRho][i], wl[srmhd::kVx][i], wl[srmhd::kVy][i],
                  wl[srmhd::kVz][i],  wl[srmhd::kP][i],  wl[srmhd::kBx][i],
                  wl[srmhd::kBy][i],  wl[srmhd::kBz][i], wl[srmhd::kPsi][i]};
    srmhd::Prim b{wr[srmhd::kRho][i], wr[srmhd::kVx][i], wr[srmhd::kVy][i],
                  wr[srmhd::kVz][i],  wr[srmhd::kP][i],  wr[srmhd::kBx][i],
                  wr[srmhd::kBy][i],  wr[srmhd::kBz][i], wr[srmhd::kPsi][i]};
    if constexpr (Limit) {
      detail::limit_face(a, rho_floor, p_floor);
      detail::limit_face(b, rho_floor, p_floor);
    }
    const srmhd::Cons flux = srmhd_hll<Axis, Glm>(a, b, eos, ch);
    f[srmhd::kD][i] = flux.d;
    f[srmhd::kSx][i] = flux.sx;
    f[srmhd::kSy][i] = flux.sy;
    f[srmhd::kSz][i] = flux.sz;
    f[srmhd::kTau][i] = flux.tau;
    f[srmhd::kBx][i] = flux.bx;
    f[srmhd::kBy][i] = flux.by;
    f[srmhd::kBz][i] = flux.bz;
    f[srmhd::kPsi][i] = flux.psi;
  }
}

template <bool Limit>
void srmhd_faces(std::size_t n, int axis, const double* const* wl,
                 const double* const* wr, double* const* f,
                 const eos::IdealGas& eos, const srmhd::GlmParams& glm,
                 double rho_floor, double p_floor) {
  with_axis(axis, [&](auto ax) {
    constexpr int kAxis = decltype(ax)::value;
    if (glm.enabled) {
      srmhd_row<kAxis, true, Limit>(n, wl, wr, f, eos, glm.ch, rho_floor,
                                    p_floor);
    } else {
      srmhd_row<kAxis, false, Limit>(n, wl, wr, f, eos, glm.ch, rho_floor,
                                     p_floor);
    }
  });
}

}  // namespace

void kernels::simd::srhd_faces_n(std::size_t n, int axis, Solver solver,
                                 const double* const* wl,
                                 const double* const* wr, double* const* f,
                                 const eos::IdealGas& eos, double rho_floor,
                                 double p_floor) {
  srhd_faces<true>(n, axis, solver, wl, wr, f, eos, rho_floor, p_floor);
}

void kernels::simd::srmhd_faces_n(std::size_t n, int axis,
                                  const double* const* wl,
                                  const double* const* wr, double* const* f,
                                  const eos::IdealGas& eos,
                                  const srmhd::GlmParams& glm,
                                  double rho_floor, double p_floor) {
  srmhd_faces<true>(n, axis, wl, wr, f, eos, glm, rho_floor, p_floor);
}

void detail::srhd_faces_unlimited(std::size_t n, int axis, Solver solver,
                                  const double* const* wl,
                                  const double* const* wr, double* const* f,
                                  const eos::IdealGas& eos) {
  srhd_faces<false>(n, axis, solver, wl, wr, f, eos, 0.0, 0.0);
}

void detail::srmhd_faces_unlimited(std::size_t n, int axis,
                                   const double* const* wl,
                                   const double* const* wr, double* const* f,
                                   const eos::IdealGas& eos,
                                   const srmhd::GlmParams& glm) {
  srmhd_faces<false>(n, axis, wl, wr, f, eos, glm, 0.0, 0.0);
}

}  // namespace rshc::riemann
