#pragma once
// Device-resident execution of the FvSolver hot path (DESIGN.md systems
// #4/#12): each block's cons/prim/u0/du live in a per-block device arena
// that persists across steps, so after the initial residency upload only
// halo-sized payloads cross the H2D/D2H boundary — interior rims come down
// for the host-side ghost logic (sibling copies, physical BCs, or the
// distributed driver's custom filler), freshly filled ghost shells go back
// up. Transfers ride a dedicated transfer stream and are fenced against a
// compute stream with device::Events.
//
// DeviceExec holds no schedule of its own: FvSolver's block task graph
// calls upload_ghosts(b) from block b's E node and stage(b, ...) from its K
// node, on the calling thread for step() and on pool workers for
// run_steps() (the device streams accept concurrent submission), so one
// block's kernels run while another block's halo upload is in flight.
//
// The kernels launched here call the same compiled core::rhs_batched_range /
// core::update_batched / core::max_wave_speed_batched instantiations as
// the host pipeline (rhs_core.cpp, -ffp-contract=off recipe), so
// HostPipeline::kDevice is bitwise identical to the host path by
// construction — pinned by tests/test_device_pipeline.cpp.

#include <memory>
#include <vector>

#include "rshc/device/device.hpp"
#include "rshc/mesh/block.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/physics.hpp"
#include "rshc/time/integrator.hpp"

namespace rshc::solver {

template <typename Physics>
class DeviceExec {
 public:
  using Context = typename Physics::Context;

  /// `blocks` is the solver's host mirror; it must outlive this object.
  DeviceExec(const mesh::Grid& grid, std::vector<mesh::Block>& blocks,
             const Context& ctx, recon::PencilKernel recon_fn,
             device::AccelModel model);
  ~DeviceExec();

  /// True while the device arenas hold the authoritative state.
  [[nodiscard]] bool resident() const { return resident_; }
  /// Host mirror was rewritten (initialize/restart); re-upload next step.
  void invalidate() { resident_ = false; }

  /// Establish residency: full cons+prim upload for every block. No-op
  /// when already resident — steady-state steps move only halos.
  void ensure_resident();

  /// E-node tail for block b: pack its ghost shells from the host mirror
  /// (just filled by the exchange) and upload them on the transfer
  /// stream. The upload event is kept for the block's next stage().
  void upload_ghosts(int b);

  /// K-node body for block b, one RK stage: the compute stream waits for
  /// the ghost upload, then runs u0 = cons (`step_start`), ghost unpack,
  /// rhs, update (u = (a*u0 + b*u) + c*dt*du, then con2prim into `stats`)
  /// and post_step (`step_end`) kernels. The interior rims are packed,
  /// downloaded and unpacked into the host mirror before this returns, so
  /// `stats` is final and the mirror holds what the next exchange reads.
  void stage(int b, time::StageCoeffs coeffs, double dt, bool step_start,
             bool step_end, C2PStats& stats);

  /// Interior max signal speed from the device-resident state (the CFL
  /// scan as a device kernel + one scalar-sized download per block).
  [[nodiscard]] double max_wave_speed();

  /// Copy cons+prim back into the host mirror (residency is kept; the
  /// mirror becomes a consistent snapshot).
  void download_all();

  /// Drain both streams (a failed step's uploads may still be in flight).
  void synchronize() { dev_.synchronize(); }

 private:
  struct Arena;

  const mesh::Grid* grid_;
  std::vector<mesh::Block>* blocks_;
  Context ctx_;
  recon::PencilKernel recon_fn_;
  device::Device dev_;
  device::StreamId compute_ = device::kDefaultStream;
  device::StreamId transfer_ = device::kDefaultStream;
  std::vector<std::unique_ptr<Arena>> arenas_;
  device::Buffer vmax_dev_;
  std::vector<double> vmax_host_;
  bool resident_ = false;
};

extern template class DeviceExec<SrhdPhysics>;
extern template class DeviceExec<SrmhdPhysics>;

}  // namespace rshc::solver
