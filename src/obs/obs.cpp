#include "rshc/obs/obs.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>

#include "rshc/common/env.hpp"
#include "rshc/obs/report.hpp"

namespace rshc::obs {

void maybe_dump(const std::string& prefix) {
  // Benches pass prefixes like "bench_results/<id>"; create the directory
  // part instead of silently writing nothing when it is absent.
  const std::filesystem::path parent =
      std::filesystem::path(prefix).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  if (env_flag("RSHC_DUMP_METRICS", false)) {
    const std::string path = prefix + ".metrics.csv";
    std::ofstream os(path);
    if (os.good()) {
      os << Registry::global().snapshot().to_csv();
      std::cout << "[metrics: " << path << "]\n";
    }
  }
  if (env_flag("RSHC_DUMP_TRACE", false)) {
    const std::string path = prefix + ".trace.json";
    Tracer::global().write_chrome_json_file(path);
    std::cout << "[trace: " << path << "]\n";
  }
  if (env_flag("RSHC_DUMP_REPORT", false)) {
    const std::string path = prefix + ".report.json";
    report::RunReport rep;
    rep.suite = std::filesystem::path(prefix).filename().string();
    rep.hardware = report::probe_hardware();
    const Snapshot snap = Registry::global().snapshot();
    rep.phases = report::phases_from_snapshot(snap);
    rep.counters = report::counters_from_snapshot(snap);
    rep.write_file(path);
    std::cout << "[report: " << path << "]\n";
  }
}

}  // namespace rshc::obs
