#include "rshc/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "rshc/common/env.hpp"
#include "rshc/common/error.hpp"
#include "rshc/obs/journal.hpp"
#include "rshc/obs/metrics.hpp"

namespace rshc::obs {

namespace {

std::atomic<bool>& tracing_flag() {
  // relaxed: tracing on/off switch; a stale read drops or keeps one span.
  static std::atomic<bool> flag{env_flag("RSHC_TRACE", false)};
  return flag;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

bool tracing_active() noexcept {
  return tracing_flag().load(std::memory_order_relaxed) && enabled();
}

void set_tracing(bool on) noexcept {
  if (on) (void)trace_epoch();  // pin the epoch no later than enablement
  tracing_flag().store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

namespace {
// Per-thread rank label; plain thread_local, owner-thread access only.
thread_local int tl_thread_rank = 0;
}  // namespace

void set_thread_rank(int rank) noexcept { tl_thread_rank = rank; }

int thread_rank() noexcept { return tl_thread_rank; }

// Fixed-capacity overwrite-oldest ring. Writers are single-threaded (each
// thread owns one ring); the mutex only serializes against export/clear.
// Lock order: Tracer::mutex_ -> Ring::mutex (export/clear/resize take the
// tracer lock first); push() takes only its own ring's mutex.
struct Tracer::Ring {
  Mutex mutex;
  std::vector<TraceEvent> buf RSHC_GUARDED_BY(mutex);
  std::size_t next RSHC_GUARDED_BY(mutex) = 0;       // slot for the next event
  std::uint64_t written RSHC_GUARDED_BY(mutex) = 0;  // lifetime events
  std::uint32_t tid = 0;

  explicit Ring(std::size_t capacity, std::uint32_t tid_in) : tid(tid_in) {
    buf.resize(capacity);
  }

  void push(const TraceEvent& ev) RSHC_EXCLUDES(mutex) {
    LockGuard lock(mutex);
    buf[next] = ev;
    next = (next + 1) % buf.size();
    ++written;
  }
};

Tracer::Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Ring& Tracer::my_ring() {
  thread_local Ring* mine = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (mine == nullptr || owner != this) {
    LockGuard lock(mutex_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<std::uint32_t>(rings_.size())));
    mine = rings_.back().get();
    owner = this;
  }
  return *mine;
}

void Tracer::record_span(const char* name, const char* cat, std::int64_t id,
                         std::int64_t t0_ns, std::int64_t t1_ns) {
  Ring& ring = my_ring();
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.id = id;
  ev.t0_ns = t0_ns;
  ev.t1_ns = t1_ns;
  ev.tid = ring.tid;
  ev.pid = tl_thread_rank;
  ring.push(ev);
}

void Tracer::record_flow(const char* name, const char* cat,
                         std::uint64_t flow_id, EventKind kind) {
  Ring& ring = my_ring();
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.flow_id = flow_id;
  ev.t0_ns = now_ns();
  ev.t1_ns = ev.t0_ns;
  ev.tid = ring.tid;
  ev.pid = tl_thread_rank;
  ev.kind = kind;
  ring.push(ev);
}

const char* Tracer::intern_name(std::string_view name) {
  LockGuard lock(mutex_);
  auto it = interned_.find(name);
  if (it == interned_.end()) it = interned_.emplace(name).first;
  return it->c_str();
}

void Tracer::record_counter(std::string_view name, const char* cat,
                            double value, int pid) {
  // Intern first (takes mutex_), then push (takes only the ring's mutex):
  // the documented mutex_ -> Ring::mutex order is never inverted.
  const char* interned = intern_name(name);
  Ring& ring = my_ring();
  TraceEvent ev;
  ev.name = interned;
  ev.cat = cat;
  ev.value = value;
  ev.t0_ns = now_ns();
  ev.t1_ns = ev.t0_ns;
  ev.tid = ring.tid;
  ev.pid = pid >= 0 ? pid : tl_thread_rank;
  ev.kind = EventKind::kCounter;
  ring.push(ev);
}

void Tracer::set_process_name(int pid, std::string name) {
  LockGuard lock(mutex_);
  process_names_[pid] = std::move(name);
}

std::uint64_t flow_begin(const char* name, const char* cat) {
  if (!tracing_active()) return 0;
  // relaxed: id allocator; uniqueness is all that matters (0 is reserved
  // for "no flow").
  static std::atomic<std::uint64_t> next{1};
  const std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  Tracer::global().record_flow(name, cat, id, EventKind::kFlowStart);
  return id;
}

void flow_end(const char* name, const char* cat, std::uint64_t id) {
  if (id == 0 || !tracing_active()) return;
  Tracer::global().record_flow(name, cat, id, EventKind::kFlowEnd);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  LockGuard lock(mutex_);
  for (const auto& ring : rings_) {
    LockGuard rlock(ring->mutex);
    const std::size_t cap = ring->buf.size();
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(ring->written, cap));
    // Oldest-first: when wrapped, the oldest live event sits at `next`.
    const std::size_t start = ring->written > cap ? ring->next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring->buf[(start + i) % cap]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns
                                        : a.t1_ns > b.t1_ns;
            });
  return out;
}

namespace {

/// `s` as a JSON string literal. Every name the exporter writes goes
/// through here: process names and interned counter names are arbitrary
/// runtime strings.
std::string quoted(std::string_view s) {
  std::string out = "\"";
  journal::append_json_escaped(out, s);
  out += '"';
  return out;
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  const auto evs = events();
  std::map<int, std::string> process_names;
  {
    LockGuard lock(mutex_);
    process_names = process_names_;
  }
  // Tracks present in the buffered events; every one gets ph:"M" metadata
  // so Perfetto shows rank/thread labels instead of bare numeric pids.
  std::map<int, std::vector<std::uint32_t>> tracks;
  for (const auto& ev : evs) {
    auto& tids = tracks[ev.pid];
    if (std::find(tids.begin(), tids.end(), ev.tid) == tids.end()) {
      tids.push_back(ev.tid);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[64];
  bool first = true;
  for (const auto& [pid, tids] : tracks) {
    if (!first) os << ",";
    first = false;
    const auto pit = process_names.find(pid);
    const std::string pname =
        pit != process_names.end() ? pit->second
                                   : "rank " + std::to_string(pid);
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":" << quoted(pname) << "}}";
    for (const auto tid : tids) {
      os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\"tid " << tid
         << "\"}}";
    }
  }
  for (const auto& ev : evs) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << quoted(ev.name != nullptr ? ev.name : "")
       << ",\"cat\":" << quoted(ev.cat != nullptr ? ev.cat : "");
    if (ev.kind == EventKind::kSpan) {
      os << ",\"ph\":\"X\",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(ev.t0_ns) / 1e3,
                    static_cast<double>(ev.t1_ns - ev.t0_ns) / 1e3);
      os << buf;
      if (ev.id >= 0) os << ",\"args\":{\"id\":" << ev.id << "}";
    } else if (ev.kind == EventKind::kCounter) {
      // Counter track: Perfetto plots args values against ts on the pid's
      // process track, lining metric samples up with the phase spans.
      os << ",\"ph\":\"C\",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                    static_cast<double>(ev.t0_ns) / 1e3);
      os << buf;
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.17g}",
                    ev.value);
      os << buf;
    } else {
      // Flow endpoints bind to the span enclosing their timestamp on the
      // same (pid, tid) track; bp:"e" attaches the end to the enclosing
      // slice instead of the next one.
      os << ",\"ph\":\""
         << (ev.kind == EventKind::kFlowStart ? "s" : "f") << "\"";
      if (ev.kind == EventKind::kFlowEnd) os << ",\"bp\":\"e\"";
      os << ",\"id\":" << ev.flow_id << ",\"pid\":" << ev.pid
         << ",\"tid\":" << ev.tid;
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                    static_cast<double>(ev.t0_ns) / 1e3);
      os << buf;
    }
    os << "}";
  }
  os << "]}";
}

void Tracer::write_chrome_json_file(const std::string& path) const {
  std::ofstream os(path);
  RSHC_REQUIRE(os.good(), "cannot open trace output file: " + path);
  write_chrome_json(os);
}

void Tracer::clear() {
  LockGuard lock(mutex_);
  for (auto& ring : rings_) {
    LockGuard rlock(ring->mutex);
    ring->next = 0;
    ring->written = 0;
  }
}

void Tracer::set_ring_capacity(std::size_t events_per_thread) {
  RSHC_REQUIRE(events_per_thread >= 1, "trace ring capacity must be >= 1");
  LockGuard lock(mutex_);
  capacity_ = events_per_thread;
  for (auto& ring : rings_) {
    LockGuard rlock(ring->mutex);
    ring->buf.assign(events_per_thread, TraceEvent{});
    ring->next = 0;
    ring->written = 0;
  }
}

std::uint64_t Tracer::dropped() const noexcept {
  std::uint64_t d = 0;
  LockGuard lock(mutex_);
  for (const auto& ring : rings_) {
    LockGuard rlock(ring->mutex);
    const auto cap = static_cast<std::uint64_t>(ring->buf.size());
    if (ring->written > cap) d += ring->written - cap;
  }
  return d;
}

}  // namespace rshc::obs
