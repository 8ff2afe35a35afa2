#pragma once
// Batched SoA kernels over SRMHD zone arrays — the host-pipeline and
// device-kernel surface mirroring rshc/srhd/kernels.hpp, compiled in
// kernels_simd.cpp (-O3, -march=native). cons_to_prim_n is a lane-wise tile
// solver: 64 zones run the 1D-W bracket expansion and Newton solve in
// lockstep through the detail:: bodies the per-zone cons_to_prim
// (con2prim.cpp) calls, so the two agree bit for bit, iteration and floor
// counts included. The fast-speed bound is a per-zone loop over the
// header-inline max_signal_speed.

#include <cstddef>

#include "rshc/srmhd/con2prim.hpp"

namespace rshc::srmhd::kernels {

struct BatchStats {
  long long total_iterations = 0;
  long long failures = 0;  ///< zones that hit the atmosphere fallback
};

namespace simd {

// NOLINTBEGIN(bugprone-easily-swappable-parameters) — SoA arrays by design.
/// cons -> prim over n zones (B and psi pass through); returns stats.
BatchStats cons_to_prim_n(std::size_t n, const double* d, const double* sx,
                          const double* sy, const double* sz,
                          const double* tau, const double* ubx,
                          const double* uby, const double* ubz,
                          const double* upsi, double* rho, double* vx,
                          double* vy, double* vz, double* p, double* bx,
                          double* by, double* bz, double* psi, double gamma,
                          const Con2PrimOptions& opt);
/// Per-zone max fast-mode speed (CFL bound).
void max_speed_n(std::size_t n, const double* rho, const double* vx,
                 const double* vy, const double* vz, const double* p,
                 const double* bx, const double* by, const double* bz,
                 const double* psi, double* speed, double gamma, int ndim);
// NOLINTEND(bugprone-easily-swappable-parameters)

}  // namespace simd

}  // namespace rshc::srmhd::kernels
