#include "rshc/parallel/monitor.hpp"

#include <algorithm>
#include <utility>

namespace rshc::parallel {

Monitor& Monitor::global() {
  static Monitor* const monitor = new Monitor();  // leaked: see the header
  return *monitor;
}

Monitor::ProbeId Monitor::add(Clock::duration period, Probe fn) {
  LockGuard lock(mutex_);
  const ProbeId id = next_id_++;
  probes_.emplace(id, Entry{period, Clock::now() + period,
                            std::make_shared<const Probe>(std::move(fn))});
  if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
  cv_.notify_all();
  return id;
}

void Monitor::remove(ProbeId id) noexcept {
  LockGuard lock(mutex_);
  probes_.erase(id);
  cv_.wait(lock.native_lock(), [&] {
    mutex_.assert_held();  // predicate runs under the wait's lock
    return running_ != id;
  });
}

void Monitor::loop() {
  for (;;) {
    std::shared_ptr<const Probe> fn;
    {
      LockGuard lock(mutex_);
      while (!fn) {
        const auto due = std::min_element(
            probes_.begin(), probes_.end(), [](const auto& a, const auto& b) {
              return a.second.next < b.second.next;
            });
        const Clock::time_point now = Clock::now();
        if (due == probes_.end()) {
          cv_.wait(lock.native_lock());
          continue;
        }
        // By value: remove() may erase the entry while this thread waits.
        const Clock::time_point next = due->second.next;
        if (now < next) {
          cv_.wait_until(lock.native_lock(), next);
          continue;
        }
        due->second.next = now + due->second.period;
        running_ = due->first;
        fn = due->second.fn;
      }
    }
    try {  // thread entry: a failing probe must not stop the others
      (*fn)();
    } catch (...) {
    }
    fn.reset();  // a removed probe's last copy dies before remove() returns
    {
      LockGuard lock(mutex_);
      running_ = 0;
    }
    cv_.notify_all();
  }
}

std::optional<Monitor::Clock::duration> StallLatch::observe(
    std::uint64_t progress, bool busy, Monitor::Clock::time_point now) {
  if (!busy) {
    in_episode_ = false;
    return std::nullopt;
  }
  if (!in_episode_ || progress != progress_) {
    in_episode_ = true;
    fired_ = false;
    progress_ = progress;
    since_ = now;
    return std::nullopt;
  }
  if (fired_ || now - since_ < timeout_) return std::nullopt;
  fired_ = true;
  return now - since_;
}

}  // namespace rshc::parallel
