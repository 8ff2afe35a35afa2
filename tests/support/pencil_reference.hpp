#pragma once
// Per-pencil reference stepper: the test oracle the FvSolver pipelines are
// pinned against bitwise. It walks one axis pencil at a time — gather,
// reconstruct, limit, Riemann solve, accumulate — and advances with
// per-zone state structs, the most literal reading of the scheme. The
// batched cores in rhs_core.cpp reorganize exactly this arithmetic for
// data movement (tiles, transposes, span loops, batched kernels), so any
// ulp of drift between the two means a core reassociated or reordered
// something.
//
// The oracle drives a solver only through its public surface: block(b) for
// the state, fill_all_ghosts() for the halo exchange / boundary conditions
// (custom ghost fillers included), options() / grid() for the scheme, and
// set_time() for the clock; the GLM psi damping is applied here. The
// driven solver must be on a host pipeline and is never stepped by itself.
//
// Bits: test TUs compile with the tree-default flags fv_solver.cpp uses, so
// the header-inline physics here is the same arithmetic the per-zone
// library code evaluates (no FMA contraction on the x86-64 baseline).

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "rshc/mesh/field_array.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/time/integrator.hpp"

namespace rshc::testsupport {

template <typename Physics>
class PencilReference {
 public:
  using Solver = solver::FvSolver<Physics>;
  using Prim = typename Physics::Prim;
  using Cons = typename Physics::Cons;

  explicit PencilReference(Solver& s) : s_(s) {
    int max_extent = 0;
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const mesh::Block& blk = s_.block(b);
      u0_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                       blk.total(0));
      du_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                       blk.total(0));
      max_extent =
          std::max({max_extent, blk.total(0), blk.total(1), blk.total(2)});
    }
    for (int v = 0; v < Physics::kNumPrim; ++v) {
      q_[v].resize(static_cast<std::size_t>(max_extent));
      ql_[v].resize(static_cast<std::size_t>(max_extent));
      qr_[v].resize(static_cast<std::size_t>(max_extent));
    }
  }

  /// Con2prim health counters over every step this oracle took.
  [[nodiscard]] const solver::C2PStats& c2p_stats() const { return stats_; }

  /// CFL-limited time step from a per-zone signal-speed scan.
  [[nodiscard]] double compute_dt() const {
    const auto& opt = s_.options();
    double vmax = 1e-30;
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const mesh::Block& blk = s_.block(b);
      const auto& w = blk.prim();
      for (int k = blk.begin(2); k < blk.end(2); ++k) {
        for (int j = blk.begin(1); j < blk.end(1); ++j) {
          for (int i = blk.begin(0); i < blk.end(0); ++i) {
            const Prim p = Physics::load_prim(w, k, j, i);
            vmax = std::max(
                vmax, Physics::max_speed(p, opt.physics, s_.grid().ndim()));
          }
        }
      }
    }
    return opt.cfl * s_.grid().min_dx() / vmax;
  }

  /// One time step: save the RK reference state, then per stage exchange
  /// every block, evaluate every rhs, and update every block.
  void step(double dt) {
    const auto& opt = s_.options();
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const auto src = s_.block(b).cons().flat();
      std::copy(src.begin(), src.end(), u0_[index(b)].flat().begin());
    }
    for (int st = 0; st < time::num_stages(opt.integrator); ++st) {
      const auto coeffs = time::stage_coeffs(opt.integrator, st);
      s_.fill_all_ghosts();
      for (int b = 0; b < s_.num_blocks(); ++b) compute_rhs(b);
      for (int b = 0; b < s_.num_blocks(); ++b) update_block(b, coeffs, dt);
    }
    if constexpr (std::is_same_v<Physics, solver::SrmhdPhysics>) {
      // GLM psi damping over the whole ghosted psi slabs, cons and prim.
      const double factor = srmhd::glm_damping_factor(
          opt.physics.glm, dt, s_.grid().min_dx());
      if (factor < 1.0) {
        for (int b = 0; b < s_.num_blocks(); ++b) {
          mesh::Block& blk = s_.block(b);
          for (double& psi : blk.cons().var(srmhd::kPsi)) psi *= factor;
          for (double& psi : blk.prim().var(srmhd::kPsi)) psi *= factor;
        }
      }
    }
    s_.set_time(s_.time() + dt);
  }

  /// Advance to t_end with adaptive dt; same clamping as
  /// FvSolver::advance_to. Returns steps taken.
  int advance_to(double t_end, int max_steps = 1000000) {
    int steps = 0;
    while (s_.time() < t_end && steps < max_steps) {
      double dt = compute_dt();
      if (s_.time() + dt > t_end) dt = t_end - s_.time();
      step(dt);
      ++steps;
    }
    return steps;
  }

 private:
  static std::size_t index(int b) { return static_cast<std::size_t>(b); }

  // Zero du, then accumulate the flux differences of every active axis,
  // one ghosted pencil at a time.
  void compute_rhs(int b) {
    const auto& opt = s_.options();
    const mesh::Block& blk = s_.block(b);
    mesh::FieldArray& du = du_[index(b)];
    du.fill(0.0);
    const auto& w = blk.prim();
    for (int axis = 0; axis < s_.grid().ndim(); ++axis) {
      const double inv_dx = 1.0 / s_.grid().dx(axis);
      const int n = blk.total(axis);
      const auto un = static_cast<std::size_t>(n);
      int a1 = -1;
      int a2 = -1;
      for (int a = 0; a < 3; ++a) {
        if (a == axis) continue;
        (a1 < 0 ? a1 : a2) = a;
      }
      // Transverse axes cover the interior only: corners are never read.
      for (int t2 = blk.begin(a2); t2 < blk.end(a2); ++t2) {
        for (int t1 = blk.begin(a1); t1 < blk.end(a1); ++t1) {
          auto local = [&](int f) {
            int idx[3];
            idx[axis] = f;
            idx[a1] = t1;
            idx[a2] = t2;
            return std::array<int, 3>{idx[0], idx[1], idx[2]};  // (i, j, k)
          };

          // Load the pencil and reconstruct every primitive variable.
          for (int v = 0; v < Physics::kNumPrim; ++v) {
            for (int f = 0; f < n; ++f) {
              const auto c = local(f);
              q_[v][static_cast<std::size_t>(f)] = w(v, c[2], c[1], c[0]);
            }
            recon::reconstruct(opt.recon, {q_[v].data(), un},
                               {ql_[v].data(), un}, {qr_[v].data(), un});
          }

          // Interfaces f+1/2 for f in [begin-1, end-1]: the left state is
          // the right face of cell f, the right state the left face of
          // cell f+1.
          double comp[Physics::kNumPrim];
          for (int f = blk.begin(axis) - 1; f < blk.end(axis); ++f) {
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = qr_[v][static_cast<std::size_t>(f)];
            }
            Prim wl = Physics::prim_from_components(comp);
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = ql_[v][static_cast<std::size_t>(f) + 1];
            }
            Prim wr = Physics::prim_from_components(comp);
            Physics::limit_face_state(wl, opt.physics);
            Physics::limit_face_state(wr, opt.physics);
            const Cons flux =
                Physics::interface_flux(wl, wr, axis, opt.physics);

            if (f >= blk.begin(axis)) {
              const auto c = local(f);
              Cons acc = Physics::load_cons(du, c[2], c[1], c[0]);
              acc += (-inv_dx) * flux;
              Physics::store_cons(du, c[2], c[1], c[0], acc);
            }
            if (f + 1 < blk.end(axis)) {
              const auto c = local(f + 1);
              Cons acc = Physics::load_cons(du, c[2], c[1], c[0]);
              acc += inv_dx * flux;
              Physics::store_cons(du, c[2], c[1], c[0], acc);
            }
          }
        }
      }
    }
  }

  // RK convex combination into the conservatives, then per-zone primitive
  // recovery reading back the freshly stored conservatives.
  void update_block(int b, time::StageCoeffs coeffs, double dt) {
    const auto& opt = s_.options();
    mesh::Block& blk = s_.block(b);
    const mesh::FieldArray& u0 = u0_[index(b)];
    const mesh::FieldArray& du = du_[index(b)];
    auto& u = blk.cons();
    auto& w = blk.prim();
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Cons ref = Physics::load_cons(u0, k, j, i);
          const Cons cur = Physics::load_cons(u, k, j, i);
          const Cons rhs = Physics::load_cons(du, k, j, i);
          const Cons next =
              coeffs.a * ref + coeffs.b * cur + (coeffs.c * dt) * rhs;
          Physics::store_cons(u, k, j, i, next);
        }
      }
    }
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Cons next = Physics::load_cons(u, k, j, i);
          Physics::store_prim(w, k, j, i,
                              Physics::to_prim(next, opt.physics, stats_));
        }
      }
    }
  }

  Solver& s_;
  std::vector<mesh::FieldArray> u0_;  // RK reference state
  std::vector<mesh::FieldArray> du_;  // flux-difference accumulator
  // Pencil work arrays: [var][pencil index].
  std::array<std::vector<double>, Physics::kNumPrim> q_;
  std::array<std::vector<double>, Physics::kNumPrim> ql_;
  std::array<std::vector<double>, Physics::kNumPrim> qr_;
  solver::C2PStats stats_;
};

}  // namespace rshc::testsupport
