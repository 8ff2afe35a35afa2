#include "rshc/solver/physics.hpp"

#include <algorithm>
#include <cmath>

#include "rshc/riemann/face_solvers.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/srhd/kernels.hpp"
#include "rshc/srmhd/kernels.hpp"

namespace rshc::solver {

void SrhdPhysics::limit_face_state(Prim& w, const Context& ctx) {
  // Single definition shared with the batched face kernels, so the
  // per-interface fallback limits with identical arithmetic.
  riemann::detail::limit_face(w, ctx.c2p.rho_floor, ctx.c2p.p_floor);
}

void SrhdPhysics::cons_to_prim_n(std::size_t n, const double* const* u,
                                 double* const* w, const Context& ctx,
                                 C2PStats& stats) {
  const auto r = srhd::kernels::simd::cons_to_prim_n(
      n, u[srhd::kD], u[srhd::kSx], u[srhd::kSy], u[srhd::kSz], u[srhd::kTau],
      w[srhd::kRho], w[srhd::kVx], w[srhd::kVy], w[srhd::kVz], w[srhd::kP],
      ctx.eos.gamma(), ctx.c2p);
  stats.total_iterations += r.total_iterations;
  stats.floored_zones += r.failures;
}

void SrhdPhysics::max_speed_n(std::size_t n, const double* const* w,
                              double* speed, const Context& ctx, int ndim) {
  srhd::kernels::simd::max_speed_n(n, w[srhd::kRho], w[srhd::kVx],
                                   w[srhd::kVy], w[srhd::kVz], w[srhd::kP],
                                   speed, ctx.eos.gamma(), ndim);
}

void SrmhdPhysics::limit_face_state(Prim& w, const Context& ctx) {
  riemann::detail::limit_face(w, ctx.c2p.rho_floor, ctx.c2p.p_floor);
}

bool SrhdPhysics::interface_flux_n(std::size_t n, int axis,
                                   const double* const* wl,
                                   const double* const* wr, double* const* f,
                                   const Context& ctx) {
  if (ctx.riemann == riemann::Solver::kExact) return false;
  riemann::kernels::simd::srhd_faces_n(n, axis, ctx.riemann, wl, wr, f,
                                       ctx.eos, ctx.c2p.rho_floor,
                                       ctx.c2p.p_floor);
  return true;
}

bool SrmhdPhysics::interface_flux_n(std::size_t n, int axis,
                                    const double* const* wl,
                                    const double* const* wr, double* const* f,
                                    const Context& ctx) {
  riemann::kernels::simd::srmhd_faces_n(n, axis, wl, wr, f, ctx.eos, ctx.glm,
                                        ctx.c2p.rho_floor, ctx.c2p.p_floor);
  return true;
}

void SrmhdPhysics::cons_to_prim_n(std::size_t n, const double* const* u,
                                  double* const* w, const Context& ctx,
                                  C2PStats& stats) {
  const auto r = srmhd::kernels::simd::cons_to_prim_n(
      n, u[srmhd::kD], u[srmhd::kSx], u[srmhd::kSy], u[srmhd::kSz],
      u[srmhd::kTau], u[srmhd::kBx], u[srmhd::kBy], u[srmhd::kBz],
      u[srmhd::kPsi], w[srmhd::kRho], w[srmhd::kVx], w[srmhd::kVy],
      w[srmhd::kVz], w[srmhd::kP], w[srmhd::kBx], w[srmhd::kBy],
      w[srmhd::kBz], w[srmhd::kPsi], ctx.eos.gamma(), ctx.c2p);
  stats.total_iterations += r.total_iterations;
  stats.floored_zones += r.failures;
}

void SrmhdPhysics::max_speed_n(std::size_t n, const double* const* w,
                               double* speed, const Context& ctx, int ndim) {
  srmhd::kernels::simd::max_speed_n(
      n, w[srmhd::kRho], w[srmhd::kVx], w[srmhd::kVy], w[srmhd::kVz],
      w[srmhd::kP], w[srmhd::kBx], w[srmhd::kBy], w[srmhd::kBz],
      w[srmhd::kPsi], speed, ctx.eos.gamma(), ndim);
}

}  // namespace rshc::solver
