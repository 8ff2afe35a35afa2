#pragma once
// The face limiter and the limiter-free entry to the lane-wise face
// kernels, shared by the per-interface entry points
// (src/riemann/riemann.cpp, Physics::limit_face_state) and the batched SoA
// face kernels (src/riemann/faces_simd.cpp). There is one formulation of
// the LLF / HLL / HLLC and SRMHD HLL solves: the branch-free lane loops of
// faces_simd.cpp. solve_srhd and solve_srmhd_hll run them on a
// one-interface row.
//
// Everything here is an implementation detail of rshc::riemann; the public
// surface stays riemann.hpp (per-interface) and riemann/kernels.hpp
// (batched SoA rows).

#include <cmath>
#include <cstddef>

#include "rshc/common/math.hpp"
#include "rshc/eos/ideal_gas.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/srmhd/glm.hpp"

namespace rshc::riemann::detail {

/// Sanitize a reconstructed face state before the Riemann solve: positivity
/// floors on rho and p, |v| rescaled to at most 1 - 1e-10 (direction kept).
/// Written as selects so the lane loops vectorize it; a lane with v = 0
/// computes a discarded vmax / 0. The single definition both
/// Physics::limit_face_state and the batched face kernels compile, so the
/// two paths limit with identical arithmetic.
template <typename P>
inline void limit_face(P& w, double rho_floor, double p_floor) {
  constexpr double vmax = 1.0 - 1e-10;
  w.rho = max_of(w.rho, rho_floor);
  w.p = max_of(w.p, p_floor);
  const double v2 = w.v_sq();
  const bool cap = v2 >= vmax * vmax;
  const double scale = vmax / std::sqrt(v2);
  w.vx = cap ? w.vx * scale : w.vx;
  w.vy = cap ? w.vy * scale : w.vy;
  w.vz = cap ? w.vz * scale : w.vz;
}

/// The lane kernels of kernels::simd::srhd_faces_n / srmhd_faces_n without
/// the face limiter: the per-interface solves hand them one-interface rows
/// whose states the caller has already limited (the |v| cap is not bitwise
/// idempotent, so limiting twice would move bits).
void srhd_faces_unlimited(std::size_t n, int axis, Solver solver,
                          const double* const* wl, const double* const* wr,
                          double* const* f, const eos::IdealGas& eos);
void srmhd_faces_unlimited(std::size_t n, int axis, const double* const* wl,
                           const double* const* wr, double* const* f,
                           const eos::IdealGas& eos,
                           const srmhd::GlmParams& glm);

}  // namespace rshc::riemann::detail
