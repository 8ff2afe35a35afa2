#pragma once
// Batched SoA face kernels: limiter + Riemann solve + flux for a whole row
// of interfaces per call, consuming the reconstructed face-state rows the
// batched host pipeline already holds in SoA layout. Each is one
// branch-free lane loop over the row, vectorized, compiled in
// faces_simd.cpp (-O3 -march=native) with -ffp-contract=off. The
// per-interface solve_srhd / solve_srmhd_hll run the same loop on a
// one-interface row, so the two paths are bitwise identical by
// construction.
//
// Row layout: `wl` / `wr` are arrays of per-variable pointers in PrimVar
// order (left = right face of cell f, right = left face of cell f+1), `f`
// per-variable flux outputs in Var order, all rows of length n.

#include <cstddef>

#include "rshc/eos/ideal_gas.hpp"
#include "rshc/riemann/riemann.hpp"
#include "rshc/srmhd/glm.hpp"

namespace rshc::riemann::kernels::simd {

// NOLINTBEGIN(bugprone-easily-swappable-parameters) — SoA rows by design.
/// SRHD faces: LLF / HLL / HLLC (kExact has no batched kernel).
void srhd_faces_n(std::size_t n, int axis, Solver solver,
                  const double* const* wl, const double* const* wr,
                  double* const* f, const eos::IdealGas& eos,
                  double rho_floor, double p_floor);
/// SRMHD faces: HLL with the upwind GLM (B_n, psi) coupling.
void srmhd_faces_n(std::size_t n, int axis, const double* const* wl,
                   const double* const* wr, double* const* f,
                   const eos::IdealGas& eos, const srmhd::GlmParams& glm,
                   double rho_floor, double p_floor);
// NOLINTEND(bugprone-easily-swappable-parameters)

}  // namespace rshc::riemann::kernels::simd
