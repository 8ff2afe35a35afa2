#include "rshc/obs/report.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "rshc/common/error.hpp"
#include "rshc/obs/journal.hpp"
#include "rshc/obs/trace.hpp"

namespace rshc::obs::report {

HardwareProbe probe_hardware() {
  HardwareProbe hw;
  hw.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  hw.page_size = ::sysconf(_SC_PAGESIZE);
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const auto start = line.find_first_not_of(" \t", colon + 1);
      if (start != std::string::npos) hw.cpu_model = line.substr(start);
      break;
    }
  }
  return hw;
}

namespace {

void write_escaped(std::ostringstream& os, std::string_view s) {
  std::string out;
  journal::append_json_escaped(out, s);
  os << out;
}

void phase_json_into(std::ostringstream& os, const PhaseStats& p) {
  os << "{\"name\":\"";
  write_escaped(os, p.name);
  os << "\",\"count\":" << p.count << ",\"sum_s\":" << p.sum_s
     << ",\"min_s\":" << p.min_s << ",\"max_s\":" << p.max_s
     << ",\"p50_s\":" << p.p50_s << ",\"p90_s\":" << p.p90_s
     << ",\"p99_s\":" << p.p99_s;
  if (p.ranks.has_value()) {
    os << ",\"ranks\":{\"min_s\":" << p.ranks->min_s
       << ",\"mean_s\":" << p.ranks->mean_s
       << ",\"max_s\":" << p.ranks->max_s
       << ",\"imbalance\":" << p.ranks->imbalance << "}";
  }
  os << "}";
}

}  // namespace

std::string RunReport::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema\":\"" << kSchemaName
     << "\",\"schema_version\":" << schema_version << ",\"suite\":\"";
  write_escaped(os, suite);
  os << "\",\"git_sha\":\"";
  write_escaped(os, git_sha);
  os << "\",\"build\":{\"type\":\"";
  write_escaped(os, build_type);
  os << "\",\"flags\":\"";
  write_escaped(os, build_flags);
  os << "\"},\"hardware\":{\"threads\":" << hardware.hardware_threads
     << ",\"page_size\":" << hardware.page_size << ",\"cpu\":\"";
  write_escaped(os, hardware.cpu_model);
  os << "\"},\"ranks\":" << ranks << ",\"phases\":[";
  bool first = true;
  for (const auto& p : phases) {
    if (!first) os << ",";
    first = false;
    phase_json_into(os, p);
  }
  os << "],\"counters\":[";
  first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    write_escaped(os, name);
    os << "\",\"value\":" << value << "}";
  }
  os << "]}";
  return os.str();
}

void RunReport::write_file(const std::string& path) const {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream os(path);
  RSHC_REQUIRE(os.good(), "cannot open report output file: " + path);
  os << to_json() << "\n";
}

std::vector<PhaseStats> phases_from_snapshot(const Snapshot& snap,
                                             std::string_view prefix) {
  std::vector<PhaseStats> out;
  for (const auto& e : snap.entries) {
    if (e.kind != "timer" || e.count == 0) continue;
    if (!prefix.empty() && e.name.rfind(prefix, 0) != 0) continue;
    PhaseStats p;
    p.name = e.name;
    p.count = e.count;
    p.sum_s = e.value;
    p.min_s = e.min;
    p.max_s = e.max;
    p.p50_s = e.p50;
    p.p90_s = e.p90;
    p.p99_s = e.p99;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<std::pair<std::string, double>> counters_from_snapshot(
    const Snapshot& snap, std::string_view prefix) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& e : snap.entries) {
    if (e.kind != "counter") continue;
    if (!prefix.empty() && e.name.rfind(prefix, 0) != 0) continue;
    out.emplace_back(e.name, e.value);
  }
  return out;
}

std::vector<PhaseStats> phases_from_ranks(std::span<const Snapshot> per_rank,
                                          std::string_view name_prefix) {
  // Union of timer names across ranks, in sorted order.
  struct Merged {
    PhaseStats stats;
    std::vector<std::int64_t> bins;
    std::vector<double> rank_sums;
    bool any = false;
  };
  std::map<std::string, Merged> merged;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const auto& e : per_rank[r].entries) {
      if (e.kind != "timer" || e.count == 0) continue;
      Merged& m = merged[e.name];
      if (m.rank_sums.empty()) m.rank_sums.assign(per_rank.size(), 0.0);
      if (m.bins.empty()) m.bins.assign(e.bins.size(), 0);
      m.stats.count += e.count;
      m.stats.sum_s += e.value;
      m.stats.min_s = m.any ? std::min(m.stats.min_s, e.min) : e.min;
      m.stats.max_s = std::max(m.stats.max_s, e.max);
      m.rank_sums[r] = e.value;
      for (std::size_t b = 0; b < e.bins.size() && b < m.bins.size(); ++b) {
        m.bins[b] += e.bins[b];
      }
      m.any = true;
    }
  }
  std::vector<PhaseStats> out;
  out.reserve(merged.size());
  const auto nranks = static_cast<double>(per_rank.size());
  for (auto& [name, m] : merged) {
    m.stats.name = std::string(name_prefix) + name;
    m.stats.p50_s = TimeHist::percentile_from_bins(m.bins, 0.50,
                                                   m.stats.min_s,
                                                   m.stats.max_s);
    m.stats.p90_s = TimeHist::percentile_from_bins(m.bins, 0.90,
                                                   m.stats.min_s,
                                                   m.stats.max_s);
    m.stats.p99_s = TimeHist::percentile_from_bins(m.bins, 0.99,
                                                   m.stats.min_s,
                                                   m.stats.max_s);
    RankStats rs;
    rs.min_s = *std::min_element(m.rank_sums.begin(), m.rank_sums.end());
    rs.max_s = *std::max_element(m.rank_sums.begin(), m.rank_sums.end());
    double total = 0.0;
    for (const double s : m.rank_sums) total += s;
    rs.mean_s = nranks > 0.0 ? total / nranks : 0.0;
    rs.imbalance = rs.mean_s > 0.0 ? rs.max_s / rs.mean_s : 0.0;
    m.stats.ranks = rs;
    out.push_back(std::move(m.stats));
  }
  return out;
}

RankScope::RankScope(Registry& reg, int rank)
    : registry_scope_(reg), prev_rank_(thread_rank()) {
  set_thread_rank(rank);
  Tracer::global().set_process_name(rank, "rank " + std::to_string(rank));
}

RankScope::~RankScope() { set_thread_rank(prev_rank_); }

}  // namespace rshc::obs::report
