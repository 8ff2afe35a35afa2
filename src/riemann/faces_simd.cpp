// Batched face kernels, compiled -O3 (-march=native when enabled) with
// -ffp-contract=off. The hot property is not auto-vectorization (the
// solves are branchy) but full inlining: limiter, prim->cons, flux, signal
// speeds and the HLL/HLLC combination all collapse into one flat loop body
// with no per-interface calls.

#include "rshc/common/error.hpp"
#include "rshc/riemann/face_solvers.hpp"
#include "rshc/riemann/kernels.hpp"

namespace rshc::riemann::kernels::simd {

void srhd_faces_n(std::size_t n, int axis, Solver solver,
                  const double* const* wl, const double* const* wr,
                  double* const* f, const eos::IdealGas& eos,
                  double rho_floor, double p_floor) {
  // Hoist the solver dispatch out of the interface loop; `solve` inlines
  // the chosen core per iteration.
  const auto run = [&](auto&& solve) {
    for (std::size_t i = 0; i < n; ++i) {
      srhd::Prim a{wl[srhd::kRho][i], wl[srhd::kVx][i], wl[srhd::kVy][i],
                   wl[srhd::kVz][i], wl[srhd::kP][i]};
      srhd::Prim b{wr[srhd::kRho][i], wr[srhd::kVx][i], wr[srhd::kVy][i],
                   wr[srhd::kVz][i], wr[srhd::kP][i]};
      detail::limit_face(a, rho_floor, p_floor);
      detail::limit_face(b, rho_floor, p_floor);
      const srhd::Cons flux = solve(detail::srhd_side(a, axis, eos),
                                    detail::srhd_side(b, axis, eos));
      f[srhd::kD][i] = flux.d;
      f[srhd::kSx][i] = flux.sx;
      f[srhd::kSy][i] = flux.sy;
      f[srhd::kSz][i] = flux.sz;
      f[srhd::kTau][i] = flux.tau;
    }
  };
  switch (solver) {
    case Solver::kLLF:
      run([](const detail::SrhdSide& l, const detail::SrhdSide& r) {
        return detail::llf(l, r);
      });
      break;
    case Solver::kHLL:
      run([](const detail::SrhdSide& l, const detail::SrhdSide& r) {
        return detail::hll(l, r);
      });
      break;
    case Solver::kHLLC:
      run([axis](const detail::SrhdSide& l, const detail::SrhdSide& r) {
        return detail::hllc(l, r, axis);
      });
      break;
    case Solver::kExact:
      // The exact Godunov solve is iterative and per-interface by nature;
      // callers (SrhdPhysics::interface_flux_n) fall back to the scalar
      // path before reaching here.
      RSHC_REQUIRE(false, "srhd_faces_n: exact solver has no batched kernel");
      break;
  }
}

void srmhd_faces_n(std::size_t n, int axis, const double* const* wl,
                   const double* const* wr, double* const* f,
                   const eos::IdealGas& eos, const srmhd::GlmParams& glm,
                   double rho_floor, double p_floor) {
  for (std::size_t i = 0; i < n; ++i) {
    srmhd::Prim a;
    a.rho = wl[srmhd::kRho][i];
    a.vx = wl[srmhd::kVx][i];
    a.vy = wl[srmhd::kVy][i];
    a.vz = wl[srmhd::kVz][i];
    a.p = wl[srmhd::kP][i];
    a.bx = wl[srmhd::kBx][i];
    a.by = wl[srmhd::kBy][i];
    a.bz = wl[srmhd::kBz][i];
    a.psi = wl[srmhd::kPsi][i];
    srmhd::Prim b;
    b.rho = wr[srmhd::kRho][i];
    b.vx = wr[srmhd::kVx][i];
    b.vy = wr[srmhd::kVy][i];
    b.vz = wr[srmhd::kVz][i];
    b.p = wr[srmhd::kP][i];
    b.bx = wr[srmhd::kBx][i];
    b.by = wr[srmhd::kBy][i];
    b.bz = wr[srmhd::kBz][i];
    b.psi = wr[srmhd::kPsi][i];
    detail::limit_face(a, rho_floor, p_floor);
    detail::limit_face(b, rho_floor, p_floor);
    const srmhd::Cons flux = detail::srmhd_hll(a, b, axis, eos, glm);
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

}  // namespace rshc::riemann::kernels::simd
