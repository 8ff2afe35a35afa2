// rshc_bench: runs one benchmark workload and prints its result as the
// last line of standard output (one JSON object). See ../README.md.
//
//   rshc_bench --workload kh_srhd --seed 1 --seconds 10 --trace 0
//              [--quick] [--plant-failure] [--work-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "rshc/obs/metrics.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rshc_bench: %s\nusage: rshc_bench --workload "
               "kh_srhd|kh_srhd_device|blast_srmhd_dist4|serve_mix --seed N "
               "--seconds S --trace 0|1 [--quick] [--plant-failure] "
               "[--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rshcbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (a == "--quick") {
        args.quick = true;
      } else if (a == "--plant-failure") {
        args.plant_failure = true;
      } else if (a == "--work-dir") {
        args.work_dir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  std::filesystem::create_directories(args.work_dir);

  Result r;
  try {
    if (args.workload == "kh_srhd") {
      r = run_kh(args, false);
    } else if (args.workload == "kh_srhd_device") {
      r = run_kh(args, true);
    } else if (args.workload == "blast_srmhd_dist4") {
      r = run_blast(args);
    } else if (args.workload == "serve_mix") {
      r = run_serve(args);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rshc_bench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  r.note("obs_enabled_runtime", rshc::obs::enabled() ? 1.0 : 0.0);
  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    Tracer::get().write(path);
    r.note("trace_file", path);
  }
  std::cout << to_json(r) << std::endl;
  return 0;
}
