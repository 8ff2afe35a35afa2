#pragma once
// Shared plumbing for the rshc benchmark program: command-line arguments,
// the result record every workload fills, order statistics, a seeded
// generator, a state digest, and the in-memory span recorder behind the
// traced run (spans are taken only here, around calls into the library's
// public functions; the library itself is not instrumented further).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "rshc/mesh/block.hpp"
#include "rshc/recon/reconstruct.hpp"

namespace rshcbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: shorter episodes and fewer jobs. Numbers from a quick run
  /// are not comparable with full runs; correctness checks are the same.
  bool quick = false;
  /// Adds an operation the program must refuse (smoke test of the failure
  /// accounting); the run then reports failed > 0 and correct = false.
  bool plant_failure = false;
  /// Scratch directory inside the checkout (checkpoints, trace output).
  std::string work_dir = ".bench_build/work";
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// Outcome of one run. `attempted` counts operations (steps or jobs);
/// `failed` counts operations that broke a correctness rule, and every
/// failed check is described in `failures`.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Extra key/value provenance (digests, counts); values are JSON text.
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& what, long long ops = 1) {
    failed += ops;
    failures.push_back(what);
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);
};

/// Quantile with linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// splitmix64: the only source of randomness, so a seed fixes the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = next() % i;
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over the bit patterns of doubles: equal digests mean bitwise
/// equal states.
class Digest {
 public:
  void add(const double* p, std::size_t n);
  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// In-memory span recorder. Spans nest per thread (the parent is the
/// innermost open span on the same thread) and are written out once, at
/// the end of the run. Disabled recorders take no clock readings.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::int64_t parent = -1;
    int tid = 0;
  };

  static Tracer& get();
  // relaxed: toggled only between phases, never while spans are open.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::int64_t begin(const char* name);
  void end(std::int64_t id);

  /// Durations in ms of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const;
  /// Chrome trace-event JSON of all spans plus a per-name table of total
  /// and self time (self = duration minus the time covered by children).
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the recorder is disabled.
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : id_(Tracer::get().enabled() ? Tracer::get().begin(name) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t id_;
};

/// Time `fn` `reps` times (each rep its own span when tracing) and return
/// the median wall time of one call in ms.
template <typename Fn>
double median_call_ms(const char* span, int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    SpanScope s(span);
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(ms_between(t0, now_ns()));
  }
  return median(std::move(t));
}

/// Total of a counter in the global obs registry.
[[nodiscard]] std::int64_t obs_counter(const char* name);

/// Fold a block's interior conservative and primitive state into `d`.
void digest_block(const rshc::mesh::Block& blk, Digest& d);
/// Empty when every interior primitive of `blk` is finite with rho > 0 and
/// p > 0 (both physics store rho in primitive 0 and p in primitive 4);
/// otherwise what is wrong.
[[nodiscard]] std::string block_problem(const rshc::mesh::Block& blk);

/// SoA copy of a 2D block's state, the input of the kernel probes:
/// interior zones of every variable, plus the interior rows with their
/// ghost zones (the reconstruction stencil needs them).
struct Snapshot {
  int nvar = 0;
  std::size_t nx = 0;  ///< row length including ghosts
  std::size_t ng = 0;
  std::size_t nrows = 0;
  std::vector<std::vector<double>> prim;
  std::vector<std::vector<double>> cons;
  std::vector<std::vector<double>> rows;
  /// Reconstructed face values of `rows` (filled by recon_probe).
  std::vector<std::vector<double>> ql;
  std::vector<std::vector<double>> qr;

  [[nodiscard]] std::size_t zones() const { return prim[0].size(); }
  /// Interior interfaces per row: the ones the solver's RHS solves.
  [[nodiscard]] std::size_t faces_per_row() const { return nx - 2 * ng + 1; }
};
[[nodiscard]] Snapshot take_snapshot(const rshc::mesh::Block& blk);

/// recon.plmmc_ns_per_zone (+ computed bytes): reconstruct every
/// primitive along x over all interior rows of the snapshot with one
/// reconstruct_rows call per variable; leaves the faces in snap.ql/qr.
void recon_probe(Snapshot& snap, rshc::recon::Method method, int reps,
                 Result& r);

/// End-to-end metrics of a solver workload. A run repeats one episode of
/// identical operations; operation k's time is taken as its fastest
/// repetition, which removes most of the CPU time the host steals from a
/// shared VM (1-21% between identical runs when the benchmark was
/// defined). From that per-operation profile: zone_updates_per_s and
/// ops_per_s over the episode, op_ms_p50 over its operations; setup_s is
/// the median of the run's set-ups.
void solver_end_to_end(const std::vector<std::vector<double>>& episode_ms,
                       double zones, const std::vector<double>& setup_s,
                       Result& r);

/// The run's result as one JSON object: correct, attempted, failed,
/// metrics ({name: {value, unit}}), failures and info.
[[nodiscard]] std::string to_json(const Result& r);

Result run_kh(const Args& args, bool device);
Result run_blast(const Args& args);
Result run_serve(const Args& args);

}  // namespace rshcbench
