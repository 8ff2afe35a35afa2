#include "rshc/solver/device_exec.hpp"

#include <algorithm>

#include "rshc/mesh/field_array.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/solver/rhs_core.hpp"

namespace rshc::solver {

namespace {

/// Rim box: the ng interior layers adjacent to face (axis, side), with
/// transverse ranges restricted to the interior — exactly the region
/// halo.cpp's pack_face reads (corners are never read by the exchange).
mesh::BoxSpec rim_box(const mesh::Block& b, int axis, int side) {
  int lo[3];
  int n[3];
  for (int a = 0; a < 3; ++a) {
    lo[a] = b.begin(a);
    n[a] = b.interior(a);
  }
  lo[axis] = side == 0 ? b.begin(axis) : b.end(axis) - b.ghost(axis);
  n[axis] = b.ghost(axis);
  return mesh::BoxSpec{lo[2], lo[1], lo[0], n[2], n[1], n[0]};
}

/// Ghost box: the ng ghost layers outside face (axis, side). Transverse
/// ranges span the FULL ghosted extent — physical boundaries fill corner
/// ghosts (boundary.cpp writes the whole transverse range), and the device
/// prim array must mirror the host ghost state exactly for the bitwise
/// download contract to cover every cell.
mesh::BoxSpec ghost_box(const mesh::Block& b, int axis, int side) {
  int lo[3] = {0, 0, 0};
  int n[3] = {b.total(0), b.total(1), b.total(2)};
  lo[axis] = side == 0 ? 0 : b.end(axis);
  n[axis] = b.ghost(axis);
  return mesh::BoxSpec{lo[2], lo[1], lo[0], n[2], n[1], n[0]};
}

/// One direction of a block's halo staging: one packed box of every prim
/// variable per active face, at per-face offsets into one buffer that
/// exists on the device and on the host.
struct Faces {
  std::vector<mesh::BoxSpec> box;  ///< per active face, (axis, side) order
  std::vector<std::size_t> off;    ///< per face, in doubles
  std::size_t len = 0;
  device::Buffer dev;
  std::vector<double> host;

  void add(const mesh::BoxSpec& b, int nvar) {
    box.push_back(b);
    off.push_back(len);
    len += static_cast<std::size_t>(nvar) * b.cells();
  }
};

}  // namespace

/// Per-block device arena plus its halo staging plan: rims (interior
/// transverse — exactly the cells sibling exchange reads) come down, ghost
/// shells (full transverse, corners included) go back up. Steady-state
/// traffic per step is exactly nstages rim payloads D2H and nstages
/// ghost-shell payloads H2D — the halo-only contract the obs byte counters
/// pin in test_device_pipeline.
template <typename Physics>
struct DeviceExec<Physics>::Arena {
  core::BlockShape shape;
  std::size_t cells = 0;
  device::Buffer cons, prim, u0, du;
  core::BatchScratch<Physics> scratch;
  std::vector<double> speed;  ///< CFL-kernel row scratch (device-side)
  Faces rim, ghost;
  /// Last ghost upload. Starts complete, so a K node whose E node threw
  /// (the pool still runs it) waits on nothing instead of forever.
  device::Event up;

  Arena(const device::Device& dev, const mesh::Block& blk,
        const mesh::Grid& grid)
      : shape(core::shape_of(blk, grid)), scratch(shape.max_extent()) {
    cells = shape.cells();
    cons = dev.alloc(static_cast<std::size_t>(Physics::kNumCons) * cells);
    prim = dev.alloc(static_cast<std::size_t>(Physics::kNumPrim) * cells);
    u0 = dev.alloc(static_cast<std::size_t>(Physics::kNumCons) * cells);
    du = dev.alloc(static_cast<std::size_t>(Physics::kNumCons) * cells);
    for (int axis = 0; axis < grid.ndim(); ++axis) {
      for (int side = 0; side < 2; ++side) {
        rim.add(rim_box(blk, axis, side), Physics::kNumPrim);
        ghost.add(ghost_box(blk, axis, side), Physics::kNumPrim);
      }
    }
    for (Faces* f : {&rim, &ghost}) {
      f->dev = dev.alloc(f->len);
      f->host.resize(f->len);
    }
    up.set();
  }

  /// Gather the face boxes of `f` from a prim array of this block's shape
  /// (device arena or host mirror — same layout) into `out`.
  void pack(const double* w, const Faces& f, double* out) const {
    for (std::size_t i = 0; i < f.box.size(); ++i) {
      mesh::pack_box(w, Physics::kNumPrim, shape.total[2], shape.total[1],
                     shape.total[0], f.box[i], out + f.off[i]);
    }
  }
  /// Scatter `in` (pack layout) back into the face boxes of `f`.
  void unpack(double* w, const Faces& f, const double* in) const {
    for (std::size_t i = 0; i < f.box.size(); ++i) {
      mesh::unpack_box(w, Physics::kNumPrim, shape.total[2], shape.total[1],
                       shape.total[0], f.box[i], in + f.off[i]);
    }
  }
};

template <typename Physics>
DeviceExec<Physics>::DeviceExec(const mesh::Grid& grid,
                                std::vector<mesh::Block>& blocks,
                                const Context& ctx,
                                recon::PencilKernel recon_fn,
                                device::AccelModel model)
    : grid_(&grid),
      blocks_(&blocks),
      ctx_(ctx),
      recon_fn_(recon_fn),
      dev_(model),
      transfer_(dev_.create_stream()) {
  arenas_.reserve(blocks.size());
  for (const auto& blk : blocks) {
    arenas_.push_back(std::make_unique<Arena>(dev_, blk, grid));
  }
  vmax_dev_ = dev_.alloc(blocks.size());
  vmax_host_.resize(blocks.size());
}

template <typename Physics>
DeviceExec<Physics>::~DeviceExec() {
  // Drain in-flight kernels before the arenas they reference go away.
  dev_.synchronize();
}

template <typename Physics>
void DeviceExec<Physics>::ensure_resident() {
  if (resident_) return;
  RSHC_TRACE_SCOPE("device.residency_upload", "device", -1);
  // Full-state upload, once. Enqueued on the compute stream so the first
  // stage's kernels are ordered after it without explicit fences; waited
  // for, because the step's E nodes write the mirror's ghosts next.
  device::Event done;
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    const mesh::Block& blk = (*blocks_)[b];
    dev_.upload_async(blk.cons().flat(), arenas_[b]->cons, compute_);
    done = dev_.upload_async(blk.prim().flat(), arenas_[b]->prim, compute_);
  }
  done.wait();
  resident_ = true;
}

template <typename Physics>
void DeviceExec<Physics>::upload_ghosts(int b) {
  Arena& a = *arenas_[static_cast<std::size_t>(b)];
  a.pack((*blocks_)[static_cast<std::size_t>(b)].prim().flat().data(),
         a.ghost, a.ghost.host.data());
  a.up = dev_.upload_async(a.ghost.host, a.ghost.dev, transfer_);
}

template <typename Physics>
void DeviceExec<Physics>::stage(int b, time::StageCoeffs coeffs, double dt,
                                bool step_start, bool step_end,
                                C2PStats& stats) {
  Arena* a = arenas_[static_cast<std::size_t>(b)].get();
  dev_.wait_event(compute_, a->up);
  if (step_start) {
    // RK reference state, ordered after the previous step's post_step.
    dev_.launch(
        [a] {
          const auto src = a->cons.device_view();
          std::copy(src.begin(), src.end(), a->u0.device_view().begin());
        },
        a->cells, compute_);
  }
  dev_.launch(
      [a] {
        a->unpack(a->prim.device_view().data(), a->ghost,
                  a->ghost.dev.device_view().data());
      },
      a->ghost.len, compute_);
  dev_.launch(
      [this, a, b] {
        core::rhs_batched_range<Physics>(
            a->shape, ctx_, recon_fn_, a->prim.device_view().data(),
            a->du.device_view().data(), a->scratch, b, a->shape.begin,
            a->shape.end, /*zero_du=*/true);
      },
      a->cells, compute_);
  dev_.launch(
      [this, a, b, coeffs, cdt = coeffs.c * dt, ps = &stats] {
        core::update_batched<Physics>(
            a->shape, ctx_, coeffs.a, coeffs.b, cdt,
            a->u0.device_view().data(), a->du.device_view().data(),
            a->cons.device_view().data(), a->prim.device_view().data(), *ps,
            b);
      },
      a->cells, compute_);
  if (step_end) {
    dev_.launch(
        [this, a, dt] {
          core::post_step_slabs<Physics>(
              a->shape, ctx_, a->cons.device_view().data(),
              a->prim.device_view().data(), dt, grid_->min_dx());
        },
        a->cells, compute_);
  }
  // Bring the new interior rims down for the next exchange: packed on the
  // compute stream after the update, downloaded on the transfer stream.
  const device::Event packed = dev_.launch(
      [a] {
        a->pack(a->prim.device_view().data(), a->rim,
                a->rim.dev.device_view().data());
      },
      a->rim.len, compute_);
  dev_.wait_event(transfer_, packed);
  dev_.download_async(a->rim.dev, a->rim.host, transfer_).wait();
  a->unpack((*blocks_)[static_cast<std::size_t>(b)].prim().flat().data(),
            a->rim, a->rim.host.data());
}

template <typename Physics>
double DeviceExec<Physics>::max_wave_speed() {
  device::Event last;
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    Arena* a = arenas_[b].get();
    last = dev_.launch(
        [this, a, b] {
          vmax_dev_.device_view()[b] = core::max_wave_speed_batched<Physics>(
              a->shape, ctx_, a->prim.device_view().data(), a->speed);
        },
        a->cells, compute_);
  }
  // Only one scalar slot per block crosses the boundary — the CFL scan is
  // not a state round-trip.
  dev_.wait_event(transfer_, last);
  dev_.download_async(vmax_dev_, vmax_host_, transfer_).wait();
  double vmax = 1e-30;
  for (const double v : vmax_host_) vmax = std::max(vmax, v);
  return vmax;
}

template <typename Physics>
void DeviceExec<Physics>::download_all() {
  RSHC_TRACE_SCOPE("device.state_download", "device", -1);
  std::vector<device::Event> done;
  done.reserve(arenas_.size() * 2);
  for (std::size_t b = 0; b < arenas_.size(); ++b) {
    mesh::Block& blk = (*blocks_)[b];
    // Compute stream: ordered after any in-flight kernels for the block.
    done.push_back(
        dev_.download_async(arenas_[b]->cons, blk.cons().flat(), compute_));
    done.push_back(
        dev_.download_async(arenas_[b]->prim, blk.prim().flat(), compute_));
  }
  for (const auto& e : done) e.wait();
}

template class DeviceExec<SrhdPhysics>;
template class DeviceExec<SrmhdPhysics>;

}  // namespace rshc::solver
