#pragma once
// Span tracer (DESIGN.md system: observability). RAII TraceScope records
// (name, category, id, begin, end) spans into per-thread ring buffers owned
// by the process-wide Tracer; export produces Chrome trace-event JSON
// (load in chrome://tracing or https://ui.perfetto.dev) so task-graph
// execution, halo exchanges, and offload transfers can be inspected on a
// timeline.
//
// Span names and categories must be string literals (or otherwise
// static-duration strings): the ring stores the pointers, never copies.
// Recording is gated by tracing_active() — a couple of relaxed atomic
// loads — and each thread writes only its own ring, so tracing that is
// compiled in but switched off costs one branch per scope.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rshc/common/mutex.hpp"

namespace rshc::obs {

/// True when spans are being recorded: requires the master obs switch
/// (enabled()) plus the tracing flag. The flag defaults to off; the
/// environment variable RSHC_TRACE=1 (or set_tracing(true)) turns it on.
[[nodiscard]] bool tracing_active() noexcept;
void set_tracing(bool on) noexcept;

/// Nanoseconds since the process-wide trace epoch (steady clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Rank label used as the Chrome-trace pid of events recorded by the
/// calling thread (default 0). In-process ranks set it (via
/// report::RankScope) so multi-rank traces separate into per-rank
/// process tracks in Perfetto.
void set_thread_rank(int rank) noexcept;
[[nodiscard]] int thread_rank() noexcept;

/// What a TraceEvent represents in the Chrome trace-event model.
enum class EventKind : std::uint8_t {
  kSpan,       ///< complete event, ph:"X"
  kFlowStart,  ///< flow begin, ph:"s" (binds to the enclosing span)
  kFlowEnd,    ///< flow end, ph:"f" with bp:"e"
  kCounter,    ///< counter sample, ph:"C" (value tracks on the timeline)
};

struct TraceEvent {
  const char* name = nullptr;  ///< static-duration string
  const char* cat = nullptr;   ///< static-duration string
  std::int64_t id = -1;        ///< optional small argument (block id, rank)
  std::uint64_t flow_id = 0;   ///< nonzero pairing id for flow events
  std::int64_t t0_ns = 0;      ///< span begin, now_ns() clock
  std::int64_t t1_ns = 0;      ///< span end (== t0_ns for flow events)
  double value = 0.0;          ///< sampled value for counter events
  std::uint32_t tid = 0;       ///< recording thread (registration order)
  std::int32_t pid = 0;        ///< rank label (thread_rank() at record time)
  EventKind kind = EventKind::kSpan;
};

class Tracer {
 public:
  static Tracer& global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Append a completed span to the calling thread's ring.
  void record_span(const char* name, const char* cat, std::int64_t id,
                   std::int64_t t0_ns, std::int64_t t1_ns);

  /// Append one endpoint of a cross-thread flow arrow (timestamped now).
  /// Outside the obs module use the RSHC_OBS_FLOW_* macros, which also
  /// compile away under RSHC_OBS=OFF.
  void record_flow(const char* name, const char* cat, std::uint64_t flow_id,
                   EventKind kind);

  /// Append a counter sample (ph:"C", timestamped now) to the calling
  /// thread's ring, attributed to process track `pid` (a rank; pass -1 to
  /// use the calling thread's rank). Counter names may be dynamic strings
  /// — e.g. metric names from a Registry snapshot — so they are interned
  /// into tracer-owned storage the first time they appear.
  void record_counter(std::string_view name, const char* cat, double value,
                      int pid = -1) RSHC_EXCLUDES(mutex_);

  /// Perfetto metadata (ph:"M"): label the process track for `pid`
  /// (a rank). Unregistered pids fall back to "rank <pid>" at export time;
  /// thread tracks are labelled "tid <tid>".
  void set_process_name(int pid, std::string name) RSHC_EXCLUDES(mutex_);

  /// All buffered events merged across threads, sorted by begin time.
  [[nodiscard]] std::vector<TraceEvent> events() const RSHC_EXCLUDES(mutex_);

  /// Chrome trace-event JSON ({"traceEvents":[...]}, "X" complete events).
  void write_chrome_json(std::ostream& os) const RSHC_EXCLUDES(mutex_);
  void write_chrome_json_file(const std::string& path) const
      RSHC_EXCLUDES(mutex_);

  /// Drop all buffered events (rings stay allocated).
  void clear() RSHC_EXCLUDES(mutex_);

  /// Ring capacity in events per thread; applies to new rings and resets
  /// existing ones. Default 65536. When a ring is full the oldest events
  /// are overwritten and dropped() grows.
  void set_ring_capacity(std::size_t events_per_thread) RSHC_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t dropped() const noexcept RSHC_EXCLUDES(mutex_);

 private:
  struct Ring;
  Ring& my_ring() RSHC_EXCLUDES(mutex_);

  // Lock order: mutex_ may be held while taking a Ring::mutex (export /
  // clear / resize iterate the rings), never the reverse — a ring writer
  // (record_span) holds only its own ring's mutex.
  const char* intern_name(std::string_view name) RSHC_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_ RSHC_GUARDED_BY(mutex_);
  std::size_t capacity_ RSHC_GUARDED_BY(mutex_) = 65536;
  std::map<int, std::string> process_names_ RSHC_GUARDED_BY(mutex_);
  // Interned counter names: std::set nodes are stable, so the c_str()
  // pointers handed to TraceEvent::name stay valid for the tracer's life.
  std::set<std::string, std::less<>> interned_ RSHC_GUARDED_BY(mutex_);
};

/// Begin a cross-thread flow (sender side): records a ph:"s" event bound
/// to the enclosing span and returns a process-unique id to hand to the
/// receiver. Returns 0 — and records nothing — when tracing is inactive.
[[nodiscard]] std::uint64_t flow_begin(const char* name, const char* cat);

/// End a flow begun by flow_begin (receiver side). An id of 0 is ignored,
/// so a message sent before tracing was switched on never emits a
/// dangling flow terminator.
void flow_end(const char* name, const char* cat, std::uint64_t id);

/// RAII span: measures construction-to-destruction and records it if
/// tracing was active at construction.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* cat = "rshc",
                      std::int64_t id = -1) noexcept {
    if (tracing_active()) {
      name_ = name;
      cat_ = cat;
      id_ = id;
      t0_ = now_ns();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      // Swallow allocation failure from a first-touch ring registration:
      // dropping one span beats terminating the traced program.
      try {
        Tracer::global().record_span(name_, cat_, id_, t0_, now_ns());
      } catch (...) {
      }
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t id_ = -1;
  std::int64_t t0_ = 0;
};

}  // namespace rshc::obs
