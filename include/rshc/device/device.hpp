#pragma once
// The execution device (DESIGN.md system #4): a simulated accelerator that
// stands in for the paper's GPU. Dedicated in-order stream workers execute
// kernels in submission order, and all data movement goes through
// upload/download with a modeled PCIe-like cost (latency + bandwidth), so
// the solver exercises the same staging and overlap logic a real GPU
// offload needs. Host code runs the batched cores directly; the scalar
// baseline is kernels_scalar.cpp, not a device.
//
// Streams follow the CUDA model: every device starts with one default
// stream (id 0); create_stream() adds further independent in-order queues.
// Work on different streams may overlap; cross-stream ordering is imposed
// only by wait_event(stream, event) — the analogue of
// cudaStreamWaitEvent — which makes `stream` hold until `event` (returned
// by an upload/download/launch on another stream) has completed.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "rshc/common/mutex.hpp"
#include "rshc/device/buffer.hpp"
#include "rshc/device/event.hpp"

namespace rshc::device {

/// In-order work queue handle; 0 is the default stream every device owns.
using StreamId = int;
inline constexpr StreamId kDefaultStream = 0;

/// Accelerator transfer cost model; defaults approximate a PCIe 3.0 x16 link.
struct AccelModel {
  double transfer_latency_sec = 10e-6;
  double transfer_bandwidth_bytes_per_sec = 12.0e9;
  /// Per-kernel launch overhead, the accelerator's analogue of a CUDA
  /// launch (drives the batch-size crossover in experiment F8).
  double launch_overhead_sec = 8e-6;
};

class Device {
 public:
  explicit Device(AccelModel model = {});
  /// Drains and joins every stream worker.
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Buffer in the device arena; host code reaches it only through
  /// upload/download, kernels through device_view().
  [[nodiscard]] Buffer alloc(std::size_t n) const { return Buffer(n); }

  /// New independent in-order stream; returns its id.
  [[nodiscard]] StreamId create_stream() RSHC_EXCLUDES(streams_mutex_);

  /// Asynchronous host->device copy (ordered w.r.t. other work on `stream`).
  Event upload_async(std::span<const double> host, Buffer& dst,
                     StreamId stream = kDefaultStream);
  /// Asynchronous device->host copy.
  Event download_async(const Buffer& src, std::span<double> host,
                       StreamId stream = kDefaultStream);
  /// Enqueue a kernel; it may touch device_view() of this device's buffers.
  /// `work_items` feeds the launch-overhead model (0 = untimed).
  Event launch(std::function<void()> kernel, std::size_t work_items = 0,
               StreamId stream = kDefaultStream);
  /// Make `stream` wait until `event` has completed before running any work
  /// submitted to it afterwards (cross-stream fence; no-op if already set).
  void wait_event(StreamId stream, Event event);
  /// Block until all submitted work on all streams has completed.
  void synchronize() RSHC_EXCLUDES(streams_mutex_);

 private:
  struct Stream;

  [[nodiscard]] double transfer_cost(std::size_t bytes) const;
  Event enqueue(StreamId stream, const char* name, std::function<void()> op)
      RSHC_EXCLUDES(streams_mutex_);

  AccelModel model_;
  Mutex streams_mutex_;  // guards the streams_ vector, not the queues
  std::vector<std::unique_ptr<Stream>> streams_
      RSHC_GUARDED_BY(streams_mutex_);
};

}  // namespace rshc::device
