#include "rshc/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <string>

#include "rshc/common/env.hpp"
#include "rshc/obs/journal.hpp"

namespace rshc::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  // relaxed: master on/off switch; a stale read drops or keeps one sample.
  static std::atomic<bool> flag{env_flag("RSHC_OBS", true)};
  return flag;
}

}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {

std::size_t thread_stripe() noexcept {
  // relaxed: stripe-index allocator; uniqueness mod kStripes only.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return mine;
}

void atomic_double_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_double_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// --- Counter ---------------------------------------------------------------

std::int64_t Counter::total() const noexcept {
  std::int64_t sum = 0;
  for (const auto& c : cells_) sum += c.v.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

// --- TimeHist --------------------------------------------------------------

std::size_t TimeHist::bin_index(std::int64_t ns) noexcept {
  if (ns <= 0) return 0;
  const auto width =
      std::bit_width(static_cast<std::uint64_t>(ns));  // floor(log2)+1
  return std::min<std::size_t>(kNumBins - 1,
                               static_cast<std::size_t>(width - 1));
}

void TimeHist::record_ns(std::int64_t ns) noexcept {
  if (ns < 0) ns = 0;
  Cell& c = cells_[detail::thread_stripe()];
  const double dns = static_cast<double>(ns);
  c.count.fetch_add(1, std::memory_order_relaxed);
  // sum via CAS-free fetch_add (C++20 atomic<double>).
  c.sum_ns.fetch_add(dns, std::memory_order_relaxed);
  detail::atomic_double_min(c.min_ns, dns);
  detail::atomic_double_max(c.max_ns, dns);
  c.bins[bin_index(ns)].fetch_add(1, std::memory_order_relaxed);
}

std::int64_t TimeHist::count() const noexcept {
  std::int64_t n = 0;
  for (const auto& c : cells_) n += c.count.load(std::memory_order_relaxed);
  return n;
}

double TimeHist::sum_seconds() const noexcept {
  double s = 0.0;
  for (const auto& c : cells_) s += c.sum_ns.load(std::memory_order_relaxed);
  return s * 1e-9;
}

double TimeHist::min_seconds() const noexcept {
  double m = 0.0;
  bool seen = false;
  for (const auto& c : cells_) {
    if (c.count.load(std::memory_order_relaxed) == 0) continue;
    const double v = c.min_ns.load(std::memory_order_relaxed);
    m = seen ? std::min(m, v) : v;
    seen = true;
  }
  return m * 1e-9;
}

double TimeHist::max_seconds() const noexcept {
  double m = 0.0;
  for (const auto& c : cells_) {
    if (c.count.load(std::memory_order_relaxed) == 0) continue;
    m = std::max(m, c.max_ns.load(std::memory_order_relaxed));
  }
  return m * 1e-9;
}

double TimeHist::percentile_from_bins(std::span<const std::int64_t> bins,
                                      double q, double min_seconds,
                                      double max_seconds) noexcept {
  std::int64_t total = 0;
  for (const auto b : bins) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] == 0) continue;
    const double next = cum + static_cast<double>(bins[i]);
    if (next >= target) {
      // Bin i covers [2^i, 2^(i+1)) ns (bin 0 starts at 0); interpolate
      // linearly by rank inside it, then clamp to the exact envelope —
      // which also bounds the open-ended last bin.
      const double lo = i == 0 ? 0.0 : static_cast<double>(std::int64_t{1} << i);
      const double hi = static_cast<double>(std::int64_t{1} << (i + 1));
      const double frac =
          std::clamp((target - cum) / static_cast<double>(bins[i]), 0.0, 1.0);
      const double v = (lo + frac * (hi - lo)) * 1e-9;
      return std::clamp(v, min_seconds, max_seconds);
    }
    cum = next;
  }
  return max_seconds;
}

double TimeHist::percentile_seconds(double q) const noexcept {
  const auto b = bins();
  return percentile_from_bins(std::span<const std::int64_t>(b), q,
                              min_seconds(), max_seconds());
}

std::array<std::int64_t, TimeHist::kNumBins> TimeHist::bins() const noexcept {
  std::array<std::int64_t, kNumBins> out{};
  for (const auto& c : cells_) {
    for (std::size_t b = 0; b < kNumBins; ++b) {
      out[b] += c.bins[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void TimeHist::reset() noexcept {
  for (auto& c : cells_) {
    c.count.store(0, std::memory_order_relaxed);
    c.sum_ns.store(0.0, std::memory_order_relaxed);
    c.min_ns.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    c.max_ns.store(0.0, std::memory_order_relaxed);
    for (auto& b : c.bins) b.store(0, std::memory_order_relaxed);
  }
}

// --- Snapshot --------------------------------------------------------------

const Snapshot::Entry* Snapshot::find(std::string_view name) const noexcept {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double Snapshot::value_or(std::string_view name,
                          double fallback) const noexcept {
  const Entry* e = find(name);
  return e != nullptr ? e->value : fallback;
}

// Here, not in journal.cpp: this TU is compiled in both RSHC_OBS builds.
void journal::append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"metrics\":[";
  bool first = true;
  for (const auto& e : entries) {
    if (!first) os << ",";
    first = false;
    std::string name;
    journal::append_json_escaped(name, e.name);
    os << "{\"name\":\"" << name << "\",\"kind\":\"" << e.kind
       << "\",\"value\":" << e.value;
    if (e.kind == "timer") {
      os << ",\"count\":" << e.count << ",\"min\":" << e.min
         << ",\"max\":" << e.max << ",\"p50\":" << e.p50
         << ",\"p90\":" << e.p90 << ",\"p99\":" << e.p99 << ",\"bins\":[";
      for (std::size_t b = 0; b < e.bins.size(); ++b) {
        if (b > 0) os << ",";
        os << e.bins[b];
      }
      os << "]";
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string Snapshot::to_csv() const {
  std::ostringstream os;
  os.precision(17);
  os << "name,kind,count,value,min,max,p50,p90,p99\n";
  for (const auto& e : entries) {
    os << e.name << "," << e.kind << "," << e.count << "," << e.value << ","
       << e.min << "," << e.max << "," << e.p50 << "," << e.p90 << ","
       << e.p99 << "\n";
  }
  return os.str();
}

// --- Registry --------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

namespace {
// Per-thread registry override; plain thread_local (no atomics needed,
// only the owning thread reads or writes it).
thread_local Registry* tl_scoped_registry = nullptr;
}  // namespace

Registry* Registry::scoped() noexcept { return tl_scoped_registry; }

ScopedRegistry::ScopedRegistry(Registry& reg) noexcept
    : prev_(tl_scoped_registry) {
  tl_scoped_registry = &reg;
}

ScopedRegistry::~ScopedRegistry() { tl_scoped_registry = prev_; }

Counter& Registry::counter(std::string_view name) {
  LockGuard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  LockGuard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

TimeHist& Registry::timer(std::string_view name) {
  LockGuard lock(mutex_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<TimeHist>())
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  LockGuard lock(mutex_);
  Snapshot snap;
  snap.entries.reserve(counters_.size() + gauges_.size() + timers_.size());
  for (const auto& [name, c] : counters_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "counter";
    e.value = static_cast<double>(c->total());
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "gauge";
    e.value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, t] : timers_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "timer";
    e.value = t->sum_seconds();
    e.count = t->count();
    e.min = t->min_seconds();
    e.max = t->max_seconds();
    const auto bins = t->bins();
    e.bins.assign(bins.begin(), bins.end());
    e.p50 = TimeHist::percentile_from_bins(e.bins, 0.50, e.min, e.max);
    e.p90 = TimeHist::percentile_from_bins(e.bins, 0.90, e.min, e.max);
    e.p99 = TimeHist::percentile_from_bins(e.bins, 0.99, e.min, e.max);
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) {
              return a.name != b.name ? a.name < b.name : a.kind < b.kind;
            });
  return snap;
}

void Registry::reset() {
  LockGuard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, t] : timers_) t->reset();
}

}  // namespace rshc::obs
