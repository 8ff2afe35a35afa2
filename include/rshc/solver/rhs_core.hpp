#pragma once
// Shared batched solver cores (DESIGN.md systems #4/#12): the slab-wise
// rhs, RK update / con2prim, CFL scan, and post-step bodies extracted from
// FvSolver so the host pipeline and the device-offload pipeline execute
// the *same compiled code*. The functions take raw SoA slab
// pointers plus a BlockShape instead of mesh types, because the device
// path runs them against flat arena buffers that are not FieldArrays.
//
// Every template is defined in src/solver/rhs_core.cpp and explicitly
// instantiated there, compiled under the kernel-TU recipe
// (-ffp-contract=off, no reassociation): one machine-code copy per
// physics, shared by every pipeline — bitwise identity by construction,
// pinned by test_rhs_pipeline and test_device_pipeline.

#include <array>
#include <cstddef>
#include <vector>

#include "rshc/mesh/block.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/physics.hpp"

namespace rshc::solver::core {

/// Pencils reconstructed per batched tile. Bounds the transpose/flux
/// staging working set to kTileRows * max_extent per variable (a few
/// hundred KiB — cache-resident) independent of block size.
inline constexpr int kTileRows = 32;

/// Geometry of one ghosted block, decoupled from mesh::Block. Axis order
/// is (x, y, z); cell_index matches FieldArray's (k, j, i) row-major
/// layout, so a flat device arena indexed through a BlockShape aliases a
/// host FieldArray exactly.
struct BlockShape {
  int ndim = 1;
  std::array<int, 3> total = {1, 1, 1};  ///< ghosted extents per axis
  std::array<int, 3> begin = {0, 0, 0};  ///< first interior index per axis
  std::array<int, 3> end = {1, 1, 1};    ///< one past last interior
  std::array<double, 3> inv_dx = {0.0, 0.0, 0.0};

  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(total[0]) *
           static_cast<std::size_t>(total[1]) *
           static_cast<std::size_t>(total[2]);
  }
  [[nodiscard]] std::size_t cell_index(int k, int j, int i) const {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(total[1]) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(total[0]) +
           static_cast<std::size_t>(i);
  }
  [[nodiscard]] int max_extent() const {
    return std::max({total[0], total[1], total[2]});
  }
};

[[nodiscard]] BlockShape shape_of(const mesh::Block& blk,
                                  const mesh::Grid& grid);

/// Batched tile work arrays: [var][row * max_extent + pencil index].
template <typename Physics>
struct BatchScratch {
  std::array<std::vector<double>, Physics::kNumPrim> tq;
  std::array<std::vector<double>, Physics::kNumPrim> tql;
  std::array<std::vector<double>, Physics::kNumPrim> tqr;
  std::array<std::vector<double>, Physics::kNumCons> tfl;

  explicit BatchScratch(int max_extent) {
    const std::size_t tlen = static_cast<std::size_t>(kTileRows) *
                             static_cast<std::size_t>(max_extent);
    for (int v = 0; v < Physics::kNumPrim; ++v) {
      tq[v].resize(tlen);
      tql[v].resize(tlen);
      tqr[v].resize(tlen);
    }
    for (int v = 0; v < Physics::kNumCons; ++v) tfl[v].resize(tlen);
  }
};

/// Batched rhs over the box [lo, hi) of a block (interior coordinates;
/// lo/hi must lie within [sh.begin, sh.end]): accumulate flux differences
/// for every active axis into the zones of the box. `w` / `du` are flat
/// SoA bases laid out per `sh`; `block_id` is zone provenance for the
/// checkers. `zero_du` zeroes the whole du array first. The full-block rhs
/// is the box [sh.begin, sh.end) with zero_du = true; the overlapped
/// distributed step instead partitions the interior into disjoint boxes
/// (exactly one passing zero_du = true, before any other runs) and calls
/// this per box in any order. Reconstruction runs on sub-pencil windows
/// padded by the stencil radius, so every zone receives *bitwise* the
/// per-axis contributions a full-block call would give it — identical
/// arithmetic to a per-pencil walk (the test oracle); see the comment on
/// the definition for how the tile staging preserves the expression
/// shapes.
template <typename Physics>
void rhs_batched_range(const BlockShape& sh,
                       const typename Physics::Context& ctx,
                       recon::Method recon, const double* w,
                       double* du, BatchScratch<Physics>& s, int block_id,
                       const std::array<int, 3>& lo,
                       const std::array<int, 3>& hi, bool zero_du);

/// Batched RK stage: u = (ca*u0 + cb*u) + cdt*du over the interior, then
/// primitive recovery u -> w through the batched con2prim kernels.
template <typename Physics>
void update_batched(const BlockShape& sh, const typename Physics::Context& ctx,
                    double ca, double cb, double cdt, const double* u0,
                    const double* du, double* u, double* w, C2PStats& stats,
                    int block_id);

/// Primitive recovery u -> w over the interior, row by row through the
/// batched con2prim kernels (Physics::cons_to_prim_n). With runtime checks
/// compiled in, every recovered zone is validated with its provenance.
template <typename Physics>
void cons_to_prim_batched(const BlockShape& sh,
                          const typename Physics::Context& ctx,
                          const double* u, double* w, C2PStats& stats,
                          int block_id);

/// Interior max signal speed (slab-wise scan; `speed` is resized to one
/// row). Seeded with 1e-30 like FvSolver::compute_dt.
template <typename Physics>
[[nodiscard]] double max_wave_speed_batched(const BlockShape& sh,
                                            const typename Physics::Context& ctx,
                                            const double* w,
                                            std::vector<double>& speed);

/// Per-step hook over whole (ghosted) arrays, run by the last K node of a
/// host step and by the device post-step kernel: GLM psi damping for
/// SRMHD, no-op for SRHD.
template <typename Physics>
void post_step_slabs(const BlockShape& sh,
                     const typename Physics::Context& ctx, double* u,
                     double* w, double dt, double dx_min);

template <>
void post_step_slabs<SrmhdPhysics>(const BlockShape& sh,
                                   const SrmhdPhysics::Context& ctx, double* u,
                                   double* w, double dt, double dx_min);

}  // namespace rshc::solver::core
