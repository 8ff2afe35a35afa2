// Tests for the heterogeneous device layer: staging semantics, stream
// ordering, events, the accelerator cost model, and the per-stream trace
// tracks and transfer counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "rshc/common/error.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/device/device.hpp"
#include "rshc/obs/obs.hpp"

namespace {

using namespace rshc::device;

TEST(Device, UploadDownloadRoundTrip) {
  Device dev;
  std::vector<double> in(257);
  std::iota(in.begin(), in.end(), 0.0);
  Buffer buf = dev.alloc(in.size());
  dev.upload_async(in, buf);
  std::vector<double> out(in.size(), -1.0);
  dev.download_async(buf, out);
  dev.synchronize();
  EXPECT_EQ(in, out);
}

TEST(Device, LaunchSeesUploadedData) {
  Device dev;
  std::vector<double> in(100, 2.0);
  Buffer buf = dev.alloc(in.size());
  dev.upload_async(in, buf);
  auto view = buf.device_view();
  dev.launch([view] {
    for (double& x : view) x *= 3.0;
  });
  std::vector<double> out(in.size());
  dev.download_async(buf, out);
  dev.synchronize();
  for (const double x : out) EXPECT_DOUBLE_EQ(x, 6.0);
}

TEST(Device, KernelsExecuteInSubmissionOrder) {
  Device dev;
  Buffer buf = dev.alloc(1);
  std::vector<double> one{1.0};
  dev.upload_async(one, buf);
  auto view = buf.device_view();
  // (x + 1) * 10 != x * 10 + 1: order matters.
  dev.launch([view] { view[0] += 1.0; });
  dev.launch([view] { view[0] *= 10.0; });
  std::vector<double> out(1);
  dev.download_async(buf, out);
  dev.synchronize();
  EXPECT_DOUBLE_EQ(out[0], 20.0);
}

TEST(Device, SizeMismatchThrows) {
  Device dev;
  Buffer buf = dev.alloc(4);
  std::vector<double> wrong(5);
  EXPECT_THROW(dev.upload_async(wrong, buf), rshc::Error);
  EXPECT_THROW(dev.download_async(buf, wrong), rshc::Error);
}

TEST(Device, EventsSignalCompletion) {
  Device dev;
  std::atomic<bool> ran{false};
  Event e = dev.launch([&ran] { ran.store(true); });
  e.wait();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(e.query());
}

TEST(Device, AccelIsAsynchronous) {
  AccelModel model;
  model.launch_overhead_sec = 20e-3;
  Device dev(model);
  rshc::WallTimer t;
  Event e = dev.launch([] {}, /*work_items=*/1);
  const double submit_time = t.seconds();
  e.wait();
  const double total_time = t.seconds();
  // Submission returns immediately; completion pays the modeled overhead.
  EXPECT_LT(submit_time, 0.010);
  EXPECT_GE(total_time, 0.015);
}

TEST(Device, AccelTransferCostScalesWithBytes) {
  AccelModel model;
  model.transfer_latency_sec = 0.0;
  model.transfer_bandwidth_bytes_per_sec = 1e8;  // deliberately slow: 100MB/s
  Device dev(model);
  std::vector<double> big(1 << 17);  // 1 MiB -> ~10 ms at 100 MB/s
  Buffer buf = dev.alloc(big.size());
  rshc::WallTimer t;
  dev.upload_async(big, buf);
  dev.synchronize();
  EXPECT_GE(t.seconds(), 0.008);
}

TEST(Device, UntimedLaunchSkipsOverhead) {
  AccelModel model;
  model.launch_overhead_sec = 50e-3;
  Device dev(model);
  rshc::WallTimer t;
  for (int i = 0; i < 5; ++i) {
    dev.launch([] {}, /*work_items=*/0);
  }
  dev.synchronize();
  EXPECT_LT(t.seconds(), 0.050);
}

// Two-stream H2D -> kernel -> D2H chain where every hop changes streams
// and is ordered *only* by event fences: upload on the transfer stream,
// kernel on the compute stream after wait_event, download back on the
// transfer stream after a second wait_event. With a modeled transfer
// latency the kernel would race ahead of the upload if the fence were
// broken, so a correct result here means the fences actually held.
TEST(Device, CrossStreamEventFencesOrderWork) {
  AccelModel model;
  model.transfer_latency_sec = 5e-3;
  model.transfer_bandwidth_bytes_per_sec =
      std::numeric_limits<double>::infinity();
  model.launch_overhead_sec = 0.0;
  Device dev(model);
  const StreamId compute = kDefaultStream;
  const StreamId transfer = dev.create_stream();

  std::vector<double> in(64);
  std::iota(in.begin(), in.end(), 1.0);
  Buffer buf = dev.alloc(in.size());
  const Event up = dev.upload_async(in, buf, transfer);
  dev.wait_event(compute, up);
  auto view = buf.device_view();
  const Event k = dev.launch([view] {
    for (double& x : view) x *= 2.0;
  }, /*work_items=*/view.size(), compute);
  dev.wait_event(transfer, k);
  std::vector<double> out(in.size(), -1.0);
  dev.download_async(buf, out, transfer);
  dev.synchronize();
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], 2.0 * in[i]) << "at " << i;
  }
}

TEST(Device, StreamsRunIndependentlyUntilFenced) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  // A kernel parked on the default stream must not block a later kernel
  // submitted to another stream (no implicit cross-stream ordering).
  std::atomic<bool> release{false};
  std::atomic<bool> other_ran{false};
  dev.launch([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  Event e = dev.launch([&other_ran] { other_ran.store(true); }, 0, s1);
  e.wait();
  EXPECT_TRUE(other_ran.load());
  release.store(true);
  dev.synchronize();
}

// Seeded mis-fence: an upload with real modeled latency is enqueued on the
// transfer stream and a dependent kernel on the compute stream. Without
// wait_event the kernel observes the upload still incomplete (the bug this
// fence discipline exists to prevent); with the fence it always observes
// completion. Observation is via Event::query() — never a racing buffer
// read — so the test is TSan-clean.
TEST(Device, MissingCrossStreamFenceIsObservable) {
  AccelModel model;
  model.transfer_latency_sec = 20e-3;
  model.transfer_bandwidth_bytes_per_sec =
      std::numeric_limits<double>::infinity();
  model.launch_overhead_sec = 0.0;
  Device dev(model);
  const StreamId transfer = dev.create_stream();
  std::vector<double> in(8, 1.0);
  Buffer buf = dev.alloc(in.size());

  {
    // Mis-fenced: kernel launches immediately while the upload is still
    // paying its 20 ms modeled latency.
    const Event up = dev.upload_async(in, buf, transfer);
    std::atomic<bool> upload_done_at_kernel{true};
    dev.launch([up, &upload_done_at_kernel] {
      upload_done_at_kernel.store(up.query());
    }).wait();
    EXPECT_FALSE(upload_done_at_kernel.load())
        << "kernel should have raced ahead of the un-fenced upload";
    dev.synchronize();
  }
  {
    // Fenced: the same chain with wait_event is always ordered.
    const Event up = dev.upload_async(in, buf, transfer);
    dev.wait_event(kDefaultStream, up);
    std::atomic<bool> upload_done_at_kernel{false};
    dev.launch([up, &upload_done_at_kernel] {
      upload_done_at_kernel.store(up.query());
    }).wait();
    EXPECT_TRUE(upload_done_at_kernel.load());
    dev.synchronize();
  }
}

TEST(Device, WaitEventOnCompletedEventIsNoOp) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  Event e = dev.launch([] {});
  e.wait();
  dev.wait_event(s1, e);  // already set: must not deadlock
  std::atomic<bool> ran{false};
  dev.launch([&ran] { ran.store(true); }, 0, s1).wait();
  EXPECT_TRUE(ran.load());
}

TEST(Device, AllocReturnsZeroedBuffer) {
  Device dev;
  Buffer buf = dev.alloc(33);
  EXPECT_EQ(buf.size(), 33U);
  std::vector<double> out(buf.size(), -1.0);
  dev.download_async(buf, out);
  dev.synchronize();
  for (const double x : out) EXPECT_EQ(x, 0.0);
}

TEST(Device, ZeroSizeTransfersComplete) {
  Device dev;
  Buffer buf = dev.alloc(0);
  std::vector<double> none;
  const Event up = dev.upload_async(none, buf);
  const Event down = dev.download_async(buf, none);
  up.wait();
  down.wait();
  EXPECT_TRUE(up.query());
  EXPECT_TRUE(down.query());
}

TEST(Device, CreateStreamReturnsSequentialIds) {
  Device dev;
  EXPECT_EQ(dev.create_stream(), 1);
  EXPECT_EQ(dev.create_stream(), 2);
  EXPECT_EQ(dev.create_stream(), 3);
  // Every id handed out is usable; the default stream stays id 0.
  for (const StreamId s : {kDefaultStream, 1, 2, 3}) {
    std::atomic<bool> ran{false};
    dev.launch([&ran] { ran.store(true); }, 0, s).wait();
    EXPECT_TRUE(ran.load()) << "stream " << s;
  }
}

TEST(Device, UnknownStreamIdThrows) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  Buffer buf = dev.alloc(2);
  std::vector<double> host(2, 1.0);
  for (const StreamId bad : {-1, s1 + 1, 99}) {
    EXPECT_THROW(dev.launch([] {}, 0, bad), rshc::Error) << bad;
    EXPECT_THROW(dev.upload_async(host, buf, bad), rshc::Error) << bad;
    EXPECT_THROW(dev.download_async(buf, host, bad), rshc::Error) << bad;
    EXPECT_THROW(dev.wait_event(bad, Event{}), rshc::Error) << bad;
  }
  dev.synchronize();
}

TEST(Device, SynchronizeDrainsEveryStream) {
  AccelModel model;
  model.launch_overhead_sec = 2e-3;
  Device dev(model);
  std::vector<StreamId> streams{kDefaultStream};
  for (int i = 0; i < 3; ++i) streams.push_back(dev.create_stream());
  std::atomic<int> done{0};
  constexpr int kPerStream = 4;
  for (const StreamId s : streams) {
    for (int i = 0; i < kPerStream; ++i) {
      dev.launch([&done] { done.fetch_add(1); }, /*work_items=*/1, s);
    }
  }
  dev.synchronize();
  EXPECT_EQ(done.load(), kPerStream * static_cast<int>(streams.size()));
}

// Host threads may create streams and submit to them concurrently; each
// stream still runs its own work in submission order.
TEST(Device, ConcurrentSubmittersKeepPerStreamOrder) {
  Device dev;
  constexpr int kThreads = 4;
  constexpr int kKernels = 50;
  std::vector<std::vector<int>> seen(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&dev, &seen, t] {
      const StreamId s = dev.create_stream();
      std::vector<int>* log = &seen[static_cast<std::size_t>(t)];
      for (int i = 0; i < kKernels; ++i) {
        dev.launch([log, i] { log->push_back(i); }, 0, s);
      }
    });
  }
  for (auto& th : submitters) th.join();
  dev.synchronize();
  std::vector<int> expected(kKernels);
  std::iota(expected.begin(), expected.end(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], expected) << "thread " << t;
  }
}

// Destroying the device drains what was already queued instead of
// dropping it: every submitted kernel runs before the workers join.
TEST(Device, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  constexpr int kKernels = 6;
  {
    AccelModel model;
    model.launch_overhead_sec = 2e-3;
    Device dev(model);
    const StreamId s1 = dev.create_stream();
    for (int i = 0; i < kKernels; ++i) {
      dev.launch([&done] { done.fetch_add(1); }, /*work_items=*/1,
                 i % 2 == 0 ? kDefaultStream : s1);
    }
  }
  EXPECT_EQ(done.load(), kKernels);
}

// Timed launches on one in-order stream pay the modeled overhead one
// after another, never concurrently.
TEST(Device, TimedLaunchesOnOneStreamPayOverheadSerially) {
  AccelModel model;
  model.launch_overhead_sec = 5e-3;
  Device dev(model);
  constexpr int kLaunches = 4;
  rshc::WallTimer t;
  for (int i = 0; i < kLaunches; ++i) dev.launch([] {}, /*work_items=*/1);
  dev.synchronize();
  EXPECT_GE(t.seconds(), 0.9 * kLaunches * model.launch_overhead_sec);
}

// A fence holds only the work submitted after it: work queued earlier on
// the same stream completes while the fence is still pending.
TEST(Device, WaitEventHoldsOnlyLaterWork) {
  Device dev;
  const StreamId s1 = dev.create_stream();
  std::atomic<bool> release{false};
  const Event gate = dev.launch([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  const Event before = dev.launch([] {}, 0, s1);
  dev.wait_event(s1, gate);
  const Event after = dev.launch([] {}, 0, s1);
  before.wait();
  EXPECT_FALSE(gate.query());
  EXPECT_FALSE(after.query()) << "fenced kernel ran before its event";
  release.store(true);
  after.wait();
  EXPECT_TRUE(gate.query());
  dev.synchronize();
}

// Events are handles: a copy handed to the producer thread completes the
// original the consumer waits on.
TEST(Device, EventCopiesShareCompletion) {
  const Event e;
  EXPECT_FALSE(e.query());
  std::thread producer([copy = e] { copy.set(); });
  e.wait();
  producer.join();
  EXPECT_TRUE(e.query());
  e.set();  // setting twice is harmless
  EXPECT_TRUE(e.query());
}

// Each stream worker records its ops on its own trace track, tagged with
// the stream index as the span id.
TEST(Device, StreamSpansCarryStreamIndex) {
#if RSHC_OBS_ENABLED
  rshc::obs::set_enabled(true);
  rshc::obs::set_tracing(true);
  rshc::obs::Tracer::global().clear();
  {
    Device dev;
    const StreamId s1 = dev.create_stream();
    Buffer buf = dev.alloc(4);
    std::vector<double> host(4, 1.0);
    dev.upload_async(host, buf, s1);
    dev.launch([] {});
    dev.launch([] {}, 0, s1);
    dev.synchronize();
  }
  rshc::obs::set_tracing(false);
  std::set<std::int64_t> kernel_ids;
  std::set<std::uint32_t> kernel_tids;
  bool upload_on_s1 = false;
  for (const auto& ev : rshc::obs::Tracer::global().events()) {
    if (ev.cat == nullptr || std::strcmp(ev.cat, "device") != 0) continue;
    if (std::strcmp(ev.name, "accel.kernel") == 0) {
      kernel_ids.insert(ev.id);
      kernel_tids.insert(ev.tid);
    }
    if (std::strcmp(ev.name, "accel.upload") == 0 && ev.id == 1) {
      upload_on_s1 = true;
    }
  }
  rshc::obs::Tracer::global().clear();
  EXPECT_EQ(kernel_ids, (std::set<std::int64_t>{0, 1}));
  EXPECT_EQ(kernel_tids.size(), 2U) << "one trace track per stream worker";
  EXPECT_TRUE(upload_on_s1);
#else
  GTEST_SKIP() << "tracing compiled out (RSHC_OBS=OFF)";
#endif
}

TEST(Device, TransfersCountBytesEachWay) {
#if RSHC_OBS_ENABLED
  rshc::obs::set_enabled(true);
  auto& h2d = rshc::obs::Registry::global().counter("device.h2d.bytes");
  auto& d2h = rshc::obs::Registry::global().counter("device.d2h.bytes");
  const auto h2d0 = h2d.total();
  const auto d2h0 = d2h.total();
  Device dev;
  std::vector<double> in(10, 1.0);
  std::vector<double> out(10);
  Buffer buf = dev.alloc(in.size());
  dev.upload_async(in, buf);
  dev.upload_async(in, buf);
  dev.download_async(buf, out);
  dev.synchronize();
  EXPECT_EQ(h2d.total() - h2d0,
            static_cast<std::int64_t>(2 * in.size() * sizeof(double)));
  EXPECT_EQ(d2h.total() - d2h0,
            static_cast<std::int64_t>(out.size() * sizeof(double)));
#else
  GTEST_SKIP() << "metrics compiled out (RSHC_OBS=OFF)";
#endif
}

}  // namespace
