#include "rshc/solver/fv_solver.hpp"

#include <algorithm>
#include <string>

#include "rshc/check/check.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/solver/device_exec.hpp"
#include "rshc/solver/rhs_core.hpp"

namespace rshc::solver {

std::string_view host_pipeline_name(HostPipeline p) {
  switch (p) {
    case HostPipeline::kBatchedSimd: return "batched-simd";
    case HostPipeline::kDevice: return "device";
  }
  return "unknown";
}

HostPipeline parse_host_pipeline(std::string_view name) {
  if (name == "batched-simd" || name == "batched") {
    return HostPipeline::kBatchedSimd;
  }
  if (name == "device") return HostPipeline::kDevice;
  RSHC_REQUIRE(false, "unknown host pipeline '" + std::string(name) +
                          "' (expected batched-simd or device)");
  return HostPipeline::kBatchedSimd;  // unreachable
}

namespace {
// Heartbeat throughput: interior zone-updates per second over the step(s)
// just taken (zones x RK stages x steps / elapsed), the "zones/sec" the
// live telemetry reports and perf_report turns into MLUPS.
[[maybe_unused]] double heartbeat_zone_rate(const mesh::Grid& g, int stages,
                                            long long nsteps, double seconds) {
  if (seconds <= 0.0) return 0.0;
  const double zones = static_cast<double>(g.extent(0)) *
                       static_cast<double>(g.extent(1)) *
                       static_cast<double>(g.extent(2));
  return zones * static_cast<double>(stages) *
         static_cast<double>(nsteps) / seconds;
}
}  // namespace

// Per-block work arrays, sized once for the longest axis: the batched
// path reconstructs core::kTileRows pencils per call through the shared
// BatchScratch tiles (rhs_core.hpp), which the device pipeline allocates
// per arena as well.
template <typename Physics>
struct FvSolver<Physics>::Scratch {
  core::BatchScratch<Physics> batch;

  // Sub-millisecond remainder of overlap-hidden time, carried across
  // stages so the integer comm.overlap.hidden_ms counter loses < 1 ms
  // total (per block — Scratch is per block, so graph workers never race).
  double hidden_ms_acc = 0.0;

  explicit Scratch(int max_extent) : batch(max_extent) {}
};

template <typename Physics>
FvSolver<Physics>::FvSolver(const mesh::Grid& grid, Options opt)
    : grid_(grid),
      opt_(opt),
      ng_(recon::ghost_width(opt.recon)),
      decomp_(grid_, opt.blocks) {
  for (int b = 0; b < decomp_.num_blocks(); ++b) add_block(decomp_.extents(b));
}

template <typename Physics>
FvSolver<Physics>::FvSolver(const mesh::Grid& grid, Options opt,
                            mesh::BlockExtents sub)
    : grid_(grid),
      opt_(opt),
      ng_(recon::ghost_width(opt.recon)),
      decomp_(grid_, {1, 1, 1}),
      restricted_(true) {
  add_block(sub);
}

template <typename Physics>
void FvSolver<Physics>::add_block(const mesh::BlockExtents& extents) {
  const auto& blk = blocks_.emplace_back(grid_, extents, ng_, Physics::kNumCons,
                                         Physics::kNumPrim);
  for (int a = 0; a < grid_.ndim(); ++a) {
    RSHC_REQUIRE(blk.interior(a) >= ng_,
                 "block too small for reconstruction stencil");
  }
  u0_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                   blk.total(0));
  du_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                   blk.total(0));
  scratch_.push_back(std::make_unique<Scratch>(
      std::max({blk.total(0), blk.total(1), blk.total(2)})));
  block_stats_.emplace_back();
}

template <typename Physics>
FvSolver<Physics>::~FvSolver() = default;

template <typename Physics>
void FvSolver<Physics>::initialize(
    const std::function<Prim(double, double, double)>& fn) {
  for (auto& blk : blocks_) {
    auto& w = blk.prim();
    auto& u = blk.cons();
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Prim p =
              fn(blk.center(0, i), blk.center(1, j), blk.center(2, k));
          RSHC_CHECK_PRIM("init", p, -1, i, j, k);
          Physics::store_prim(w, k, j, i, p);
          Physics::store_cons(u, k, j, i, Physics::to_cons(p, opt_.physics));
        }
      }
    }
  }
  fill_all_ghosts();
  if (device_) device_->invalidate();  // host mirror is authoritative again
  time_ = 0.0;
  stats_ = {};
}

template <typename Physics>
void FvSolver<Physics>::exchange_block(int b) {
  RSHC_OBS_PHASE("solver.phase.exchange", "solver", b);
  if (ghost_filler_) {
    ghost_filler_(b);
    return;
  }
  RSHC_REQUIRE(!restricted_,
               "restricted solver needs set_ghost_filler before stepping");
  mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  for (int axis = 0; axis < grid_.ndim(); ++axis) {
    const bool periodic = opt_.bc.periodic(axis);
    for (int side = 0; side < 2; ++side) {
      const auto nbr = decomp_.neighbor(b, axis, side, periodic);
      if (nbr.has_value()) {
        mesh::copy_halo(blk, blocks_[static_cast<std::size_t>(*nbr)], axis,
                        side);
      } else {
        const auto negate = Physics::reflect_negate_vars(axis);
        mesh::apply_physical_boundary(
            blk, axis, side, opt_.bc.type[static_cast<std::size_t>(axis)],
            negate);
      }
    }
  }
}

template <typename Physics>
void FvSolver<Physics>::fill_all_ghosts() {
  for (int b = 0; b < num_blocks(); ++b) exchange_block(b);
}

template <typename Physics>
void FvSolver<Physics>::compute_rhs(int b) {
  RSHC_OBS_PHASE("solver.phase.rhs", "solver", b);
  const mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  compute_rhs_range(b, {blk.begin(0), blk.begin(1), blk.begin(2)},
                    {blk.end(0), blk.end(1), blk.end(2)}, /*zero_du=*/true);
}

// Delegates to the shared core::rhs_batched_range instantiation — the same
// compiled body the device pipeline launches as its rhs kernel.
template <typename Physics>
void FvSolver<Physics>::compute_rhs_range(int b, const std::array<int, 3>& lo,
                                          const std::array<int, 3>& hi,
                                          bool zero_du) {
  mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  core::rhs_batched_range<Physics>(
      core::shape_of(blk, grid_), opt_.physics, opt_.recon,
      blk.prim().flat().data(), du_[static_cast<std::size_t>(b)].flat().data(),
      scratch_[static_cast<std::size_t>(b)]->batch, b, lo, hi, zero_du);
}

// Interior-first rhs for the latency-hiding exchange. The deep interior
// (every zone >= ng from each active face) reads no ghosts, so it runs
// while halo messages fly; the remaining onion of ng-wide boundary boxes
// runs as overlap_finish_ reports faces valid. The boxes partition the
// block disjointly and compute_rhs_range is bitwise per zone regardless of
// box order, so the result is bit-identical to compute_rhs after a
// synchronous exchange.
template <typename Physics>
void FvSolver<Physics>::compute_rhs_overlapped(int b) {
  RSHC_OBS_PHASE("solver.phase.rhs", "solver", b);
  const mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];

  std::array<int, 3> ilo{};
  std::array<int, 3> ihi{};
  bool has_interior = true;
  for (int a = 0; a < 3; ++a) {
    const int margin = a < grid_.ndim() ? blk.ghost(a) : 0;
    ilo[a] = blk.begin(a) + margin;
    ihi[a] = blk.end(a) - margin;
    if (ilo[a] >= ihi[a]) has_interior = false;
  }

  struct Box {
    std::array<int, 3> lo;
    std::array<int, 3> hi;
    unsigned need = 0;  // faces (bit axis*2+side) whose ghosts the box reads
    bool zero = false;
    bool done = false;
  };
  unsigned all_faces = 0;
  for (int a = 0; a < grid_.ndim(); ++a) {
    all_faces |= (1u << (a * 2)) | (1u << (a * 2 + 1));
  }

  std::array<Box, 7> boxes{};
  std::size_t nboxes = 0;
  if (has_interior) {
    // Onion decomposition: box(a, side) is the ng-wide margin at face
    // (a, side), restricted to the interior of axes < a and spanning axes
    // > a fully — the boxes tile (block \ deep interior) disjointly. A box
    // reads the ghosts of its own face, plus both faces of every active
    // axis t > a (its t-extent is full, so t-pencils reach both ghost
    // layers); axes < a never reach ghosts (extent clipped to interior).
    for (int a = 0; a < grid_.ndim(); ++a) {
      for (int side = 0; side < 2; ++side) {
        Box& box = boxes[nboxes++];
        for (int t = 0; t < 3; ++t) {
          box.lo[t] = t < a ? ilo[t] : blk.begin(t);
          box.hi[t] = t < a ? ihi[t] : blk.end(t);
        }
        if (side == 0) {
          box.lo[a] = blk.begin(a);
          box.hi[a] = ilo[a];
        } else {
          box.lo[a] = ihi[a];
          box.hi[a] = blk.end(a);
        }
        box.need = 1u << (a * 2 + side);
        for (int t = a + 1; t < grid_.ndim(); ++t) {
          box.need |= (1u << (t * 2)) | (1u << (t * 2 + 1));
        }
      }
    }
  } else {
    // Degenerate block (some extent < 3*ng): no ghost-free interior.
    // One full box gated on every active face — no overlap, still correct.
    Box& box = boxes[nboxes++];
    for (int t = 0; t < 3; ++t) {
      box.lo[t] = blk.begin(t);
      box.hi[t] = blk.end(t);
    }
    box.need = all_faces;
    box.zero = true;
  }

  if (has_interior) {
    const WallTimer t;
    compute_rhs_range(b, ilo, ihi, /*zero_du=*/true);
    // The interior pass ran while the halo messages were in flight: that
    // is the comm time this schedule hides.
    const double ms = t.seconds() * 1000.0;
    Scratch& s = *scratch_[static_cast<std::size_t>(b)];
    s.hidden_ms_acc += ms;
    const auto whole = static_cast<long long>(s.hidden_ms_acc);
    if (whole > 0) {
      RSHC_OBS_COUNT("comm.overlap.hidden_ms", whole);
      s.hidden_ms_acc -= static_cast<double>(whole);
    }
    RSHC_OBS_COUNT("solver.rhs.interior_zones",
                   static_cast<long long>(ihi[0] - ilo[0]) *
                       static_cast<long long>(ihi[1] - ilo[1]) *
                       static_cast<long long>(ihi[2] - ilo[2]));
  }

  // Inactive axes have no exchange: mark their faces pre-arrived so the
  // masks only ever gate on real messages.
  unsigned arrived = ~all_faces;
  auto sweep = [&] {
    for (std::size_t i = 0; i < nboxes; ++i) {
      Box& box = boxes[i];
      if (box.done || (box.need & ~arrived) != 0) continue;
      compute_rhs_range(b, box.lo, box.hi, box.zero);
      box.done = true;
    }
  };
  const FaceReadyFn ready = [&](int axis, int side) {
    arrived |= 1u << (axis * 2 + side);
    sweep();
  };
  overlap_finish_(b, ready);
  for (std::size_t i = 0; i < nboxes; ++i) {
    RSHC_REQUIRE(boxes[i].done,
                 "overlap finish hook did not report every face ready");
  }
}

template <typename Physics>
void FvSolver<Physics>::compute_rhs_all() {
  for (int b = 0; b < num_blocks(); ++b) compute_rhs(b);
}

// Batched update: delegates to the shared core::update_batched
// instantiation (rk_combine_n span loops + batched con2prim) — the same
// compiled body the device pipeline launches as its update kernel.
template <typename Physics>
void FvSolver<Physics>::update_block(int b, time::StageCoeffs coeffs,
                                     double dt) {
  mesh::Block& blk = blocks_[static_cast<std::size_t>(b)];
  C2PStats stats;
  core::update_batched<Physics>(
      core::shape_of(blk, grid_), opt_.physics, coeffs.a, coeffs.b,
      coeffs.c * dt, u0_[static_cast<std::size_t>(b)].flat().data(),
      du_[static_cast<std::size_t>(b)].flat().data(),
      blk.cons().flat().data(), blk.prim().flat().data(), stats, b);
  block_stats_[static_cast<std::size_t>(b)] += stats;
}

// Restart / resume path: the same batched row-by-row c2p the RK update
// runs (core::cons_to_prim_batched), not a second per-zone loop. Its
// counters (zones floored while restoring included) count like a step's.
template <typename Physics>
void FvSolver<Physics>::recover_all_prims() {
  for (int b = 0; b < num_blocks(); ++b) {
    auto& blk = blocks_[static_cast<std::size_t>(b)];
    core::cons_to_prim_batched<Physics>(
        core::shape_of(blk, grid_), opt_.physics, blk.cons().flat().data(),
        blk.prim().flat().data(), stats_, b);
  }
  fill_all_ghosts();
  if (device_) device_->invalidate();  // restart rewrote the host mirror
}

template <typename Physics>
double FvSolver<Physics>::compute_dt() const {
  if (device_resident()) {
    // CFL scan on the device-resident state: same compiled core body, one
    // scalar download per block instead of a state round-trip.
    return opt_.cfl * grid_.min_dx() / device_->max_wave_speed();
  }
  // Slab-wise CFL scan through the shared core (the body the device
  // pipeline launches as its dt kernel).
  double vmax = 1e-30;
  std::vector<double> speed;
  for (const auto& blk : blocks_) {
    vmax = std::max(vmax, core::max_wave_speed_batched<Physics>(
                              core::shape_of(blk, grid_), opt_.physics,
                              blk.prim().flat().data(), speed));
  }
  return opt_.cfl * grid_.min_dx() / vmax;
}

template <typename Physics>
bool FvSolver<Physics>::device_resident() const {
  return device_ && device_->resident();
}

template <typename Physics>
void FvSolver<Physics>::sync_from_device() {
  if (device_resident()) device_->download_all();
}

template <typename Physics>
void FvSolver<Physics>::step(double dt) {
  RSHC_OBS_PHASE("solver.step", "solver", -1);
  RSHC_OBS_COUNT("solver.steps", 1);
  const WallTimer t;
  run_graph(1, dt, Schedule::kDataflow, nullptr);
  finish_steps(1, dt, t.seconds());
}

template <typename Physics>
void FvSolver<Physics>::run_steps(int nsteps, double dt,
                                  parallel::ThreadPool& pool,
                                  Schedule schedule) {
  RSHC_TRACE_SCOPE("solver.run_steps", "solver", nsteps);
  RSHC_OBS_COUNT("solver.steps", nsteps);
  const WallTimer t;
  run_graph(nsteps, dt, schedule, &pool);
  finish_steps(nsteps, dt, t.seconds());
}

// Shared by both pipelines: on kDevice, establish residency (full upload,
// first step only; the arenas are built on the first device step), then
// run the step graph, whose node bodies drive the device per block.
template <typename Physics>
void FvSolver<Physics>::run_graph(int nsteps, double dt, Schedule schedule,
                                  parallel::ThreadPool* pool) {
  if (opt_.pipeline == HostPipeline::kDevice) {
    if (!device_) {
      device_ = std::make_unique<DeviceExec<Physics>>(
          grid_, blocks_, opt_.physics, opt_.recon, opt_.accel);
    }
    device_->ensure_resident();
  }
  current_dt_ = dt;
  parallel::TaskGraph& graph = step_graph(nsteps, schedule);
  try {
    if (pool != nullptr) {
      graph.run(*pool);
    } else {
      graph.run_inline();
    }
  } catch (...) {
    // A throwing E node stops the inline run after sibling E nodes may
    // have queued their ghost uploads: leave nothing in flight.
    if (device_) device_->synchronize();
    throw;
  }
}

template <typename Physics>
void FvSolver<Physics>::finish_steps(int nsteps, double dt,
                                     [[maybe_unused]] double seconds) {
  for (const auto& bs : block_stats_) stats_ += bs;
  for (auto& bs : block_stats_) bs = {};
  time_ += dt * nsteps;
  steps_taken_ += nsteps;
  // One heartbeat per call: a multi-step graph has no per-step boundary;
  // the rate still averages over every step taken.
  RSHC_OBS_HEARTBEAT(steps_taken_, time_, dt,
                     heartbeat_zone_rate(grid_,
                                         time::num_stages(opt_.integrator),
                                         nsteps, seconds));
}

template <typename Physics>
parallel::TaskGraph& FvSolver<Physics>::step_graph(int nsteps,
                                                   Schedule schedule) {
  if (graph_ && graph_steps_ == nsteps && graph_schedule_ == schedule &&
      graph_overlap_ == overlap_active()) {
    return *graph_;
  }
  graph_ = std::make_unique<parallel::TaskGraph>();
  graph_steps_ = nsteps;
  graph_schedule_ = schedule;
  graph_overlap_ = overlap_active();
  const bool overlap = graph_overlap_;
  const bool device = opt_.pipeline == HostPipeline::kDevice;

  using NodeId = parallel::TaskGraph::NodeId;
  const int nb = num_blocks();
  const int stages = time::num_stages(opt_.integrator);

  std::vector<std::vector<int>> neighbors(static_cast<std::size_t>(nb));
  for (int b = 0; b < nb; ++b) {
    auto& out = neighbors[static_cast<std::size_t>(b)];
    for (int axis = 0; axis < grid_.ndim(); ++axis) {
      for (int side = 0; side < 2; ++side) {
        const auto nbr =
            decomp_.neighbor(b, axis, side, opt_.bc.periodic(axis));
        if (nbr.has_value() && *nbr != b) out.push_back(*nbr);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

  // One node per block for a phase (E or K of one stage). Dataflow: the
  // node depends on its own block and its neighbours in the previous
  // phase. Bulk-sync: on one no-op barrier node over the whole previous
  // phase. The first phase's nodes are the graph roots.
  std::vector<NodeId> prev;
  auto add_phase = [&](const auto& body_of) {
    std::vector<NodeId> barrier;
    if (schedule == Schedule::kBulkSync && !prev.empty()) {
      barrier.push_back(graph_->add([] {}, prev));
    }
    std::vector<NodeId> cur(static_cast<std::size_t>(nb));
    for (int b = 0; b < nb; ++b) {
      std::vector<NodeId> deps = barrier;
      if (barrier.empty() && !prev.empty()) {
        deps.push_back(prev[static_cast<std::size_t>(b)]);
        for (int nbr : neighbors[static_cast<std::size_t>(b)]) {
          deps.push_back(prev[static_cast<std::size_t>(nbr)]);
        }
      }
      cur[static_cast<std::size_t>(b)] = graph_->add(body_of(b), deps);
    }
    prev = std::move(cur);
  };

  for (int step = 0; step < nsteps; ++step) {
    for (int s = 0; s < stages; ++s) {
      const bool step_start = (s == 0);
      const bool step_end = (s == stages - 1);
      const auto coeffs = time::stage_coeffs(opt_.integrator, s);
      // E nodes: exchange+BC (K of self and neighbours wrote the prims
      // this copies). On kDevice the exchange runs on the host mirror,
      // whose rims those K nodes brought down, and the filled ghost shells
      // go up.
      add_phase([&](int b) -> std::function<void()> {
        if (device) {
          return [this, b] {
            exchange_block(b);
            device_->upload_ghosts(b);
          };
        }
        return [this, b, step_start, overlap] {
          if (step_start) {
            // Per-block save of the RK reference state.
            RSHC_OBS_PHASE("solver.phase.other", "solver", b);
            const auto src =
                blocks_[static_cast<std::size_t>(b)].cons().flat();
            auto dst = u0_[static_cast<std::size_t>(b)].flat();
            std::copy(src.begin(), src.end(), dst.begin());
          }
          // Overlap: only post the async exchange here; the matching K
          // node finishes it face by face under the interior pass, so
          // boundary work keys off halo arrival, not a bulk wait.
          if (overlap) {
            overlap_begin_(b);
          } else {
            exchange_block(b);
          }
        };
      });
      // K nodes: rhs+update+c2p (E of neighbours read this block's prims:
      // anti-dependency). On kDevice: the block's kernel chain (the RK
      // save rides in its first stage), ending with its rims in the mirror.
      add_phase([&](int b) -> std::function<void()> {
        if (device) {
          return [this, b, coeffs, step_start, step_end] {
            device_->stage(b, coeffs, current_dt_, step_start, step_end,
                           block_stats_[static_cast<std::size_t>(b)]);
          };
        }
        return [this, b, coeffs, step_end, overlap] {
          if (overlap) {
            compute_rhs_overlapped(b);
          } else {
            compute_rhs(b);
          }
          update_block(b, coeffs, current_dt_);
          if (step_end) {
            RSHC_OBS_PHASE("solver.phase.other", "solver", b);
            auto& blk = blocks_[static_cast<std::size_t>(b)];
            core::post_step_slabs<Physics>(
                core::shape_of(blk, grid_), opt_.physics,
                blk.cons().flat().data(), blk.prim().flat().data(),
                current_dt_, grid_.min_dx());
          }
        };
      });
    }
  }
  return *graph_;
}

template <typename Physics>
int FvSolver<Physics>::advance_to(double t_end, int max_steps) {
  int steps = 0;
  while (time_ < t_end && steps < max_steps) {
    double dt = compute_dt();
    if (time_ + dt > t_end) dt = t_end - time_;
    step(dt);
    ++steps;
  }
  return steps;
}

template <typename Physics>
typename Physics::Prim FvSolver<Physics>::prim_at(long long gi, long long gj,
                                                  long long gk) const {
  for (const auto& blk : blocks_) {
    const auto& e = blk.extents();
    if (gi >= e.lo[0] && gi < e.hi[0] && gj >= e.lo[1] && gj < e.hi[1] &&
        gk >= e.lo[2] && gk < e.hi[2]) {
      const int i = static_cast<int>(gi - e.lo[0]) + blk.ghost(0);
      const int j = static_cast<int>(gj - e.lo[1]) + blk.ghost(1);
      const int k = static_cast<int>(gk - e.lo[2]) + blk.ghost(2);
      return Physics::load_prim(blk.prim(), k, j, i);
    }
  }
  RSHC_REQUIRE(false, "global cell index outside the grid");
  return {};
}

template <typename Physics>
std::vector<double> FvSolver<Physics>::gather_prim_var(int v) const {
  std::vector<double> out(static_cast<std::size_t>(grid_.num_cells()));
  for (const auto& blk : blocks_) {
    const auto& e = blk.extents();
    const auto& w = blk.prim();
    // Interior rows are contiguous in both the block slab and the global
    // row-major output: copy whole rows.
    const auto nx = static_cast<std::size_t>(blk.interior(0));
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        const long long gj = e.lo[1] + (j - blk.ghost(1));
        const long long gk = e.lo[2] + (k - blk.ghost(2));
        const std::size_t idx = static_cast<std::size_t>(
            (gk * grid_.extent(1) + gj) * grid_.extent(0) + e.lo[0]);
        const double* row =
            w.var(v).data() + w.cell_index(k, j, blk.begin(0));
        std::copy(row, row + nx, out.begin() + static_cast<long long>(idx));
      }
    }
  }
  return out;
}

template <typename Physics>
typename Physics::Cons FvSolver<Physics>::total_cons() const {
  Cons total;
  double vol = 1.0;
  for (int a = 0; a < grid_.ndim(); ++a) vol *= grid_.dx(a);
  for (const auto& blk : blocks_) {
    const auto& u = blk.cons();
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          total += vol * Physics::load_cons(u, k, j, i);
        }
      }
    }
  }
  return total;
}

template class FvSolver<SrhdPhysics>;
template class FvSolver<SrmhdPhysics>;

}  // namespace rshc::solver
