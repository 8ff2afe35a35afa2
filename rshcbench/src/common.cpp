#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "rshc/obs/metrics.hpp"

namespace rshcbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int thread_tag() {
  static std::atomic<int> next{0};
  thread_local const int tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

thread_local std::vector<std::int64_t> open_spans;

}  // namespace

void Result::note(const std::string& key, double value) {
  info.emplace_back(key, json_number(value));
}

void Result::note(const std::string& key, const std::string& text) {
  info.emplace_back(key, json_string(text));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

void Digest::add(const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, p + i, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h_ ^= (bits >> (8 * b)) & 0xFFU;
      h_ *= 1099511628211ULL;
    }
  }
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.tid = thread_tag();
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    s.t0 = now_ns();
    spans_.push_back(s);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t t1 = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : spans_) {
    if (s.t1 > 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(ms_between(s.t0, s.t1));
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Self time: a span's duration minus the union of its children's
  // intervals (children of one parent run on the parent's thread, so they
  // never overlap one another).
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.t1 > 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  struct Row {
    long long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0;
  std::ostringstream ev;
  bool first_event = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.t1 <= 0) continue;
    auto& row = rows[s.name];
    ++row.count;
    row.total_ms += ms_between(s.t0, s.t1);
    row.self_ms += ms_between(s.t0, s.t1) - static_cast<double>(child_ns[i]) * 1e-6;
    if (!first_event) ev << ",\n";
    first_event = false;
    ev << "{\"name\":" << json_string(s.name) << ",\"ph\":\"X\",\"pid\":0,\"tid\":"
       << s.tid << ",\"ts\":" << json_number(static_cast<double>(s.t0 - origin) * 1e-3)
       << ",\"dur\":" << json_number(static_cast<double>(s.t1 - s.t0) * 1e-3)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n" << ev.str() << "\n],\n\"self_time\":{";
  bool first = true;
  for (const auto& [name, row] : rows) {
    out << (first ? "\n" : ",\n") << json_string(name) << ":{\"count\":" << row.count
        << ",\"total_ms\":" << json_number(row.total_ms)
        << ",\"self_ms\":" << json_number(row.self_ms) << "}";
    first = false;
  }
  out << "\n}}\n";
}

std::int64_t obs_counter(const char* name) {
  return rshc::obs::Registry::global().counter(name).total();
}

void digest_block(const rshc::mesh::Block& blk, Digest& d) {
  std::vector<double> row;
  for (const auto* f : {&blk.cons(), &blk.prim()}) {
    for (int v = 0; v < f->nvar(); ++v) {
      for (int k = blk.begin(2); k < blk.end(2); ++k) {
        for (int j = blk.begin(1); j < blk.end(1); ++j) {
          row.clear();
          for (int i = blk.begin(0); i < blk.end(0); ++i) {
            row.push_back((*f)(v, k, j, i));
          }
          d.add(row.data(), row.size());
        }
      }
    }
  }
}

std::string block_problem(const rshc::mesh::Block& blk) {
  const auto& w = blk.prim();
  for (int k = blk.begin(2); k < blk.end(2); ++k) {
    for (int j = blk.begin(1); j < blk.end(1); ++j) {
      for (int i = blk.begin(0); i < blk.end(0); ++i) {
        for (int v = 0; v < w.nvar(); ++v) {
          if (!std::isfinite(w(v, k, j, i))) return "non-finite primitive";
        }
        if (!(w(0, k, j, i) > 0.0) || !(w(4, k, j, i) > 0.0)) {
          return "non-positive density or pressure";
        }
      }
    }
  }
  return {};
}

Snapshot take_snapshot(const rshc::mesh::Block& blk) {
  Snapshot snap;
  snap.nvar = blk.prim().nvar();
  snap.ng = static_cast<std::size_t>(blk.begin(0));
  snap.nx = static_cast<std::size_t>(blk.total(0));
  snap.nrows = static_cast<std::size_t>(blk.interior(1));
  const auto nv = static_cast<std::size_t>(snap.nvar);
  snap.prim.resize(nv);
  snap.cons.resize(nv);
  snap.rows.resize(nv);
  for (int v = 0; v < snap.nvar; ++v) {
    const auto uv = static_cast<std::size_t>(v);
    for (int j = blk.begin(1); j < blk.end(1); ++j) {
      for (int i = 0; i < blk.total(0); ++i) {
        snap.rows[uv].push_back(blk.prim()(v, 0, j, i));
      }
      for (int i = blk.begin(0); i < blk.end(0); ++i) {
        snap.prim[uv].push_back(blk.prim()(v, 0, j, i));
        snap.cons[uv].push_back(blk.cons()(v, 0, j, i));
      }
    }
  }
  snap.ql.assign(nv, std::vector<double>(snap.nx * snap.nrows, 0.0));
  snap.qr.assign(nv, std::vector<double>(snap.nx * snap.nrows, 0.0));
  return snap;
}

void recon_probe(Snapshot& snap, rshc::recon::Method method, int reps,
                 Result& r) {
  const double ms = median_call_ms("recon.reconstruct_rows", reps, [&] {
    for (std::size_t v = 0; v < snap.rows.size(); ++v) {
      rshc::recon::reconstruct_rows(method, snap.nrows, snap.nx,
                                    snap.rows[v].data(), snap.nx,
                                    snap.ql[v].data(), snap.qr[v].data(),
                                    snap.nx);
    }
  });
  r.metric("recon.plmmc_ns_per_zone",
           ms * 1e6 / static_cast<double>(snap.zones()), "ns");
  // Per variable: read the cell, write its two face values.
  r.metric("recon.plmmc_bytes_per_zone_computed", snap.nvar * 3 * 8, "B");
}

void solver_end_to_end(const std::vector<std::vector<double>>& episode_ms,
                       double zones, const std::vector<double>& setup_s,
                       Result& r) {
  std::vector<double> fastest = episode_ms.at(0);
  for (const auto& ep : episode_ms) {
    for (std::size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], ep.at(k));
    }
  }
  double episode_s = 0.0;
  for (const double ms : fastest) episode_s += ms * 1e-3;
  const auto ops = static_cast<double>(fastest.size());
  r.metric("setup_s", median(setup_s), "s");
  r.metric("zone_updates_per_s", zones * ops / episode_s, "1/s");
  r.metric("ops_per_s", ops / episode_s, "1/s");
  r.metric("op_ms_p50", median(fastest), "ms");
}

std::string to_json(const Result& r) {
  std::ostringstream o;
  o << "{\"correct\":" << (r.failed == 0 && r.failures.empty() ? "true" : "false")
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    o << (i ? "," : "") << json_string(m.name) << ":{\"value\":"
      << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
  }
  o << "},\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    o << (i ? "," : "") << json_string(r.failures[i]);
  }
  o << "],\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    o << (i ? "," : "") << json_string(r.info[i].first) << ":" << r.info[i].second;
  }
  o << "}}";
  return o.str();
}

}  // namespace rshcbench
