#pragma once
// Structured event journal (DESIGN.md system: observability — live layer).
// Append-only JSONL stream of run-lifecycle events: run start/end,
// checkpoint writes, rshc::check failures, and stall-watchdog firings.
// Every line is a self-contained JSON object carrying schema/version
// ("rshc.journal" v1), a trace-epoch timestamp, the recording thread's
// rank, and git-sha provenance, so a post-mortem can line journal events
// up with the Chrome trace and the telemetry stream from the same run.
//
// Compile gating mirrors obs.hpp: with RSHC_OBS=OFF everything here is an
// inline no-op stub and src/obs/journal.cpp compiles to an empty object
// (the CI obs-off nm lane proves it), so callers in io/bench/tests never
// need their own #if guards.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#ifndef RSHC_OBS_ENABLED
#define RSHC_OBS_ENABLED 1
#endif

#if RSHC_OBS_ENABLED
#include <atomic>
#include <fstream>

#include "rshc/common/mutex.hpp"
#endif

namespace rshc::obs::journal {

inline constexpr int kSchemaVersion = 1;
inline constexpr const char* kSchemaName = "rshc.journal";

/// Append `s` to `out` with JSON string escaping (quotes, backslash, every
/// control byte below 0x20). The one escaper behind every obs JSON writer;
/// it exists in both builds (Snapshot and RunReport to_json need it).
void append_json_escaped(std::string& out, std::string_view s);

#if RSHC_OBS_ENABLED

/// One extra key/value pair on a journal event. The value is pre-rendered
/// to JSON text at construction (strings escaped and quoted, numbers
/// formatted, raw() passed through), so event() just concatenates.
struct Field {
  Field(std::string_view k, std::string_view v);
  Field(std::string_view k, const char* v) : Field(k, std::string_view(v)) {}
  Field(std::string_view k, double v);
  Field(std::string_view k, std::int64_t v);
  Field(std::string_view k, int v) : Field(k, static_cast<std::int64_t>(v)) {}

  /// `json` must already be valid JSON (e.g. an embedded registry
  /// snapshot); it is emitted verbatim.
  [[nodiscard]] static Field raw(std::string_view k, std::string_view json);

  std::string key;
  std::string rendered;  ///< JSON value text, ready to emit

 private:
  Field() = default;
};

/// Append-only JSONL sink. Thread-safe; every event() flushes, because the
/// most interesting lines (check failure, fatal watchdog) are written
/// moments before an abort.
class Journal {
 public:
  /// Process-wide journal. On first access it opens the path named by
  /// RSHC_JOURNAL_OUT, when set (missing parent directories are created);
  /// otherwise it stays closed until open() is called explicitly.
  static Journal& global();

  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (truncating) `path`, creating missing parent directories.
  /// Reopening closes the previous stream first.
  void open(const std::string& path) RSHC_EXCLUDES(mutex_);
  void close() RSHC_EXCLUDES(mutex_);
  [[nodiscard]] bool active() const RSHC_EXCLUDES(mutex_);

  /// Git revision stamped on every subsequent event ("unknown" until set).
  void set_provenance(std::string git_sha) RSHC_EXCLUDES(mutex_);

  /// Append one event line:
  ///   {"schema":"rshc.journal","v":1,"event":<type>,"ts_ms":...,
  ///    "rank":...,"git_sha":...,<fields...>}
  /// No-op when closed. Never throws: a journal write failure must not
  /// take down the run it is documenting.
  void event(std::string_view type,
             std::initializer_list<Field> fields = {}) noexcept
      RSHC_EXCLUDES(mutex_);

  /// Lines written since open() (test hook).
  [[nodiscard]] std::int64_t events_written() const noexcept;

 private:
  mutable Mutex mutex_;
  std::ofstream os_ RSHC_GUARDED_BY(mutex_);
  bool open_ RSHC_GUARDED_BY(mutex_) = false;
  std::string git_sha_ RSHC_GUARDED_BY(mutex_) = "unknown";
  // relaxed: test-visible event counter, eventual visibility only.
  std::atomic<std::int64_t> events_{0};
};

/// Install the rshc::check failure hook that mirrors every check violation
/// into Journal::global() as a "check_failure" event. Idempotent.
void install_check_hook() noexcept;

/// Convenience events on Journal::global().
void run_start(std::string_view name) noexcept;
void run_end(std::string_view name) noexcept;
void checkpoint(std::string_view path, double time) noexcept;

#else  // !RSHC_OBS_ENABLED

struct Field {
  Field(std::string_view, std::string_view) {}
  Field(std::string_view, const char*) {}
  Field(std::string_view, double) {}
  Field(std::string_view, std::int64_t) {}
  Field(std::string_view, int) {}
  [[nodiscard]] static Field raw(std::string_view k, std::string_view) {
    return Field(k, 0);
  }
};

class Journal {
 public:
  static Journal& global() {
    static Journal j;
    return j;
  }
  void open(const std::string&) {}
  void close() {}
  [[nodiscard]] bool active() const { return false; }
  void set_provenance(std::string) {}
  void event(std::string_view, std::initializer_list<Field> = {}) noexcept {}
  [[nodiscard]] std::int64_t events_written() const noexcept { return 0; }
};

inline void install_check_hook() noexcept {}
inline void run_start(std::string_view) noexcept {}
inline void run_end(std::string_view) noexcept {}
inline void checkpoint(std::string_view, double) noexcept {}

#endif  // RSHC_OBS_ENABLED

}  // namespace rshc::obs::journal
