#include "rshc/riemann/riemann.hpp"

#include <cmath>

#include "rshc/analysis/exact_riemann.hpp"
#include "rshc/common/error.hpp"
#include "rshc/riemann/face_solvers.hpp"

namespace rshc::riemann {

std::string_view solver_name(Solver s) {
  switch (s) {
    case Solver::kLLF: return "llf";
    case Solver::kHLL: return "hll";
    case Solver::kHLLC: return "hllc";
    case Solver::kExact: return "exact";
  }
  return "unknown";
}

Solver parse_solver(std::string_view name) {
  if (name == "llf") return Solver::kLLF;
  if (name == "hll") return Solver::kHLL;
  if (name == "hllc") return Solver::kHLLC;
  if (name == "exact") return Solver::kExact;
  RSHC_REQUIRE(false, std::string("unknown riemann solver: ") +
                          std::string(name));
  return Solver::kHLL;  // unreachable
}

namespace {

using srhd::Cons;
using srhd::Prim;

/// Godunov flux from the exact Riemann solution sampled on the interface
/// characteristic xi = 0. Transverse velocity is taken from the upwind
/// side of the contact and rescaled so the state stays subluminal.
Cons exact_godunov(const Prim& wl, const Prim& wr, int axis,
                   const eos::IdealGas& eos) {
  const analysis::ExactRiemann er({wl.rho, wl.v(axis), wl.p},
                                  {wr.rho, wr.v(axis), wr.p}, eos.gamma());
  const auto s = er.sample(0.0);
  // Upwind transverse components by the contact speed.
  const Prim& up = er.v_star() >= 0.0 ? wl : wr;
  Prim w;
  w.rho = s.rho;
  w.p = s.p;
  switch (axis) {
    case 0: w.vx = s.v; w.vy = up.vy; w.vz = up.vz; break;
    case 1: w.vy = s.v; w.vx = up.vx; w.vz = up.vz; break;
    default: w.vz = s.v; w.vx = up.vx; w.vy = up.vy; break;
  }
  // Guard |v| < 1 after grafting transverse components.
  const double v2 = w.v_sq();
  if (v2 >= 1.0) {
    const double scale = std::sqrt((1.0 - 1e-12) / v2);
    w.vx *= scale;
    w.vy *= scale;
    w.vz *= scale;
  }
  const Cons u = srhd::prim_to_cons(w, eos);
  return srhd::flux(w, u, axis);
}

}  // namespace

srhd::Cons solve_srhd(Solver s, const srhd::Prim& wl, const srhd::Prim& wr,
                      int axis, const eos::IdealGas& eos) {
  if (s == Solver::kExact) return exact_godunov(wl, wr, axis, eos);
  // A one-interface row through the lane kernel: one formulation of the
  // approximate solvers, so this path and the batched rows agree bitwise.
  const double* l[] = {&wl.rho, &wl.vx, &wl.vy, &wl.vz, &wl.p};
  const double* r[] = {&wr.rho, &wr.vx, &wr.vy, &wr.vz, &wr.p};
  Cons f;
  double* out[] = {&f.d, &f.sx, &f.sy, &f.sz, &f.tau};
  detail::srhd_faces_unlimited(1, axis, s, l, r, out, eos);
  return f;
}

srmhd::Cons solve_srmhd_hll(const srmhd::Prim& wl, const srmhd::Prim& wr,
                            int axis, const eos::IdealGas& eos,
                            const srmhd::GlmParams& glm) {
  const double* l[] = {&wl.rho, &wl.vx, &wl.vy, &wl.vz, &wl.p,
                       &wl.bx,  &wl.by, &wl.bz, &wl.psi};
  const double* r[] = {&wr.rho, &wr.vx, &wr.vy, &wr.vz, &wr.p,
                       &wr.bx,  &wr.by, &wr.bz, &wr.psi};
  srmhd::Cons f;
  double* out[] = {&f.d,  &f.sx, &f.sy, &f.sz, &f.tau,
                   &f.bx, &f.by, &f.bz, &f.psi};
  detail::srmhd_faces_unlimited(1, axis, l, r, out, eos, glm);
  return f;
}

}  // namespace rshc::riemann
