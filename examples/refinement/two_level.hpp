#pragma once
// Two-level static mesh refinement for the SRHD solver — the structured-
// refinement substrate of the adaptive production codes in this paper's
// lineage (HAD/Dendro-style), reduced to its testable core and built on
// the public FvSolver API only (ghost-filler hook, block access, step):
//
//  - a coarse FvSolver over the whole domain,
//  - a factor-2 refined FvSolver over a fixed sub-region,
//  - per stage, the fine level's ghost zones are *prolongated* from the
//    coarse primitives (piecewise-constant injection, refreshed every
//    stage via the ghost-filler hook),
//  - after each step the fine conservatives are *restricted* (cell
//    averages) onto the underlying coarse cells and re-inverted.
//
// Both levels advance with the same dt (no subcycling); compute_dt()
// returns the fine level's CFL bound, so the coarse level simply runs at
// half its allowed Courant number. Without refluxing, conservation holds
// only to the truncation error of the coarse-fine boundary flux mismatch
// — measured, documented, and asserted small in the tests (the
// reconstructed experiment R1 quantifies it).

#include <array>
#include <memory>

#include "rshc/solver/fv_solver.hpp"

namespace rshc::amr {

/// Coarse-cell index box [lo, hi) to refine by a factor of 2.
struct RefineRegion {
  std::array<long long, 3> lo = {0, 0, 0};
  std::array<long long, 3> hi = {1, 1, 1};
};

class TwoLevelSrhdSolver {
 public:
  using Options = solver::SrhdSolver::Options;
  using Prim = solver::SrhdPhysics::Prim;

  /// The region must keep `ghost-width + 1` coarse cells of clearance
  /// from every non-periodic domain edge so fine ghosts always land on
  /// valid coarse data.
  TwoLevelSrhdSolver(const mesh::Grid& coarse_grid, Options opt,
                     RefineRegion region);

  void initialize(const std::function<Prim(double, double, double)>& fn);

  /// Adaptivity: every `interval` steps, re-center the refined region on
  /// the cells whose relative density gradient exceeds `threshold`
  /// (plus `padding` coarse cells of margin). The region keeps its
  /// current size along each axis and clamps to the legal clearance; old
  /// fine data is copied where the old and new regions overlap and
  /// prolongated from the coarse level elsewhere. Pass interval = 0 to
  /// disable (static region, the default).
  void enable_adaptivity(int interval, double threshold = 0.1,
                         long long padding = 4);

  /// Recompute the region once, immediately (also used internally).
  void regrid_now();

  /// Fine-level CFL bound (the binding one without subcycling).
  [[nodiscard]] double compute_dt();
  void step(double dt);
  int advance_to(double t_end, int max_steps = 1000000);

  [[nodiscard]] double time() const { return coarse_->time(); }
  [[nodiscard]] solver::SrhdSolver& coarse() { return *coarse_; }
  [[nodiscard]] solver::SrhdSolver& fine() { return *fine_; }
  [[nodiscard]] const RefineRegion& region() const { return region_; }

  /// Composite view: the coarse-grid field with the refined region holding
  /// restricted fine averages (kept current by step()).
  [[nodiscard]] std::vector<double> gather_composite_var(int v) const {
    return coarse_->gather_prim_var(v);
  }

 private:
  void prolongate_fine_ghosts(int block);
  void restrict_to_coarse();
  void build_fine(const RefineRegion& region,
                  const solver::SrhdSolver* old_fine,
                  const RefineRegion& old_region);
  [[nodiscard]] RefineRegion flagged_region() const;

  mesh::Grid coarse_grid_;
  RefineRegion region_;
  std::unique_ptr<solver::SrhdSolver> coarse_;
  std::unique_ptr<mesh::Grid> fine_grid_;
  std::unique_ptr<solver::SrhdSolver> fine_;

  // Adaptivity state.
  int regrid_interval_ = 0;
  double regrid_threshold_ = 0.1;
  long long regrid_padding_ = 4;
  int steps_since_regrid_ = 0;
};

}  // namespace rshc::amr
