#include "rshc/obs/journal.hpp"

// With RSHC_OBS=OFF this TU compiles to an empty object (the header
// provides inline no-op stubs); the CI obs-off nm lane checks that.
#if RSHC_OBS_ENABLED

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "rshc/check/check.hpp"
#include "rshc/obs/trace.hpp"

namespace rshc::obs::journal {

Field::Field(std::string_view k, std::string_view v) : key(k) {
  rendered.reserve(v.size() + 2);
  rendered += '"';
  append_json_escaped(rendered, v);
  rendered += '"';
}

Field::Field(std::string_view k, double v) : key(k) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  rendered = buf;
}

Field::Field(std::string_view k, std::int64_t v) : key(k) {
  rendered = std::to_string(v);
}

Field Field::raw(std::string_view k, std::string_view json) {
  Field f;
  f.key = k;
  f.rendered = json;
  return f;
}

Journal& Journal::global() {
  static Journal j;
  static const bool opened_from_env = [] {
    const char* v = std::getenv("RSHC_JOURNAL_OUT");
    if (v != nullptr && *v != '\0') j.open(v);
    return true;
  }();
  (void)opened_from_env;
  return j;
}

Journal::~Journal() { close(); }

void Journal::open(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  LockGuard lock(mutex_);
  if (open_) os_.close();
  os_.open(path, std::ios::trunc);
  open_ = os_.good();
  events_.store(0, std::memory_order_relaxed);
}

void Journal::close() {
  LockGuard lock(mutex_);
  if (open_) os_.close();
  open_ = false;
}

bool Journal::active() const {
  LockGuard lock(mutex_);
  return open_;
}

void Journal::set_provenance(std::string git_sha) {
  LockGuard lock(mutex_);
  git_sha_ = std::move(git_sha);
}

void Journal::event(std::string_view type,
                    std::initializer_list<Field> fields) noexcept {
  // Never throws: a journal allocation or I/O failure must not take down
  // the run it documents (event() runs inside check::fail and the
  // watchdog, possibly moments before an abort).
  try {
    std::string line;
    line.reserve(256);
    line += "{\"schema\":\"";
    line += kSchemaName;
    line += "\",\"v\":";
    line += std::to_string(kSchemaVersion);
    line += ",\"event\":\"";
    append_json_escaped(line, type);
    line += '"';
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"ts_ms\":%.3f",
                  static_cast<double>(now_ns()) / 1e6);
    line += buf;
    line += ",\"rank\":";
    line += std::to_string(thread_rank());
    LockGuard lock(mutex_);
    if (!open_) return;
    line += ",\"git_sha\":\"";
    append_json_escaped(line, git_sha_);
    line += '"';
    for (const Field& f : fields) {
      line += ",\"";
      append_json_escaped(line, f.key);
      line += "\":";
      line += f.rendered;
    }
    line += '}';
    os_ << line << '\n';
    // Flush per event: lines are rare and the next one may never come.
    os_.flush();
    events_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
  }
}

std::int64_t Journal::events_written() const noexcept {
  return events_.load(std::memory_order_relaxed);
}

void install_check_hook() noexcept {
  check::set_failure_hook([](const char* report) {
    Journal::global().event("check_failure",
                            {{"report", std::string_view(report)}});
  });
}

void run_start(std::string_view name) noexcept {
  Journal::global().event("run_start", {{"name", name}});
}

void run_end(std::string_view name) noexcept {
  Journal::global().event("run_end", {{"name", name}});
}

void checkpoint(std::string_view path, double time) noexcept {
  Journal::global().event("checkpoint", {{"path", path}, {"t", time}});
}

}  // namespace rshc::obs::journal

#endif  // RSHC_OBS_ENABLED
