#pragma once
// Progress monitor (DESIGN.md "Live telemetry & watchdog"): one
// process-wide background thread running periodic probes. The telemetry
// Sampler and Watchdog and the simulation service's per-job stall scan
// are all probes on Monitor::global(); StallLatch is the one stall rule
// the last two share. Obs-free, so it exists in every build.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "rshc/common/mutex.hpp"

namespace rshc::parallel {

class Monitor {
 public:
  using Clock = std::chrono::steady_clock;
  using Probe = std::function<void()>;
  using ProbeId = std::uint64_t;  ///< 0 is never a valid id

  /// The process's one monitor. Never destroyed, so objects with static
  /// storage duration may still remove() their probes at exit.
  static Monitor& global();

  /// Run `fn` every `period` (first run one period from now) on the
  /// monitor thread, which starts on first use. Probes run one at a time
  /// with no monitor lock held; a probe's exception is swallowed.
  ProbeId add(Clock::duration period, Probe fn) RSHC_EXCLUDES(mutex_);

  /// Returns only once probe `id` is not running and never will again
  /// (unknown ids are a no-op). Not callable from a probe, nor while
  /// holding a lock the probe takes.
  void remove(ProbeId id) noexcept RSHC_EXCLUDES(mutex_);

 private:
  Monitor() = default;

  struct Entry {
    Clock::duration period;
    Clock::time_point next;
    std::shared_ptr<const Probe> fn;  // shared: survives a mid-run remove()
  };

  void loop() RSHC_EXCLUDES(mutex_);

  Mutex mutex_;
  std::condition_variable cv_;  ///< probe set changed / probe finished
  std::map<ProbeId, Entry> probes_ RSHC_GUARDED_BY(mutex_);
  ProbeId next_id_ RSHC_GUARDED_BY(mutex_) = 1;
  ProbeId running_ RSHC_GUARDED_BY(mutex_) = 0;  ///< 0 = none in flight
  std::thread thread_;  // started by add() under mutex_; runs until exit
};

/// The one stall rule: fire once per busy episode that has made no
/// progress for at least `timeout`. An episode starts at the first busy
/// observation; a progress change starts a new one and an idle
/// observation ends it, so both re-arm the latch. Not thread-safe: each
/// latch is fed by one probe, under whatever guards its owner.
class StallLatch {
 public:
  explicit StallLatch(Monitor::Clock::duration timeout = {})
      : timeout_(timeout) {}

  /// How often to observe: max(10ms, timeout/4), which catches a stall
  /// within ~1.5x the timeout.
  [[nodiscard]] Monitor::Clock::duration period() const {
    return std::max<Monitor::Clock::duration>(std::chrono::milliseconds(10),
                                              timeout_ / 4);
  }

  /// Feed one observation of a monotonic progress counter and of whether
  /// work is pending; returns the quiet time when this observation fires.
  [[nodiscard]] std::optional<Monitor::Clock::duration> observe(
      std::uint64_t progress, bool busy, Monitor::Clock::time_point now);

 private:
  Monitor::Clock::duration timeout_;
  std::uint64_t progress_ = 0;
  Monitor::Clock::time_point since_;
  bool in_episode_ = false;
  bool fired_ = false;
};

}  // namespace rshc::parallel
