// Workload serve_mix: a closed loop against a 3-worker SimulationService.
// One generator thread (this one) keeps 4 jobs outstanding: it submits,
// polls for completions, and submits the next job as soon as it sees one
// finish. A closed loop was chosen because its load adapts to the service
// (a slow service receives less work), so runs repeat; an open loop at
// half load spread by +-13-14% between identical runs.
//
// A run repeats identical rounds: one seeded sequence of 120 jobs pushed
// through the loop from an idle service back to idle, until --seconds have
// passed and at least 1000 jobs completed. The sequence is built from
// blocks of 20 jobs with a fixed composition (every kind twice, once per
// resolution variant); the seed shuffles each block and draws each job's
// CFL number, so every seed runs the same amount of work in a different
// order and reaches different states:
//   - validation tubes sod/mm1/mm2 (SRHD, exact-Riemann cache), normal class
//   - balsara1 (SRMHD), normal class
//   - short sod/smooth jobs in the high class
//   - small 2D kh/blast2d/mhd_blast/field_loop jobs in the batch class,
//     which the high and normal classes preempt (checkpoint, requeue,
//     warm resume).

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"
#include "rshc/serve/riemann_cache.hpp"
#include "rshc/serve/scenario.hpp"
#include "rshc/serve/service.hpp"

namespace rshcbench {
namespace {

using rshc::serve::JobSpec;
using rshc::serve::JobState;
using rshc::serve::PhysicsKind;
using rshc::serve::Priority;

constexpr int kOutstanding = 4;
constexpr unsigned kWorkers = 3;

struct Kind {
  const char* problem;
  PhysicsKind physics;
  Priority priority;
  long long res[2];
  int steps;
  bool validate;
};

constexpr Kind kKinds[] = {
    {"sod", PhysicsKind::kSrhd, Priority::kNormal, {200, 240}, 30, true},
    {"mm1", PhysicsKind::kSrhd, Priority::kNormal, {200, 240}, 30, true},
    {"mm2", PhysicsKind::kSrhd, Priority::kNormal, {200, 240}, 30, true},
    {"balsara1", PhysicsKind::kSrmhd, Priority::kNormal, {200, 240}, 30, false},
    {"sod", PhysicsKind::kSrhd, Priority::kHigh, {128, 144}, 12, true},
    {"smooth", PhysicsKind::kSrhd, Priority::kHigh, {128, 144}, 12, false},
    {"kh", PhysicsKind::kSrhd, Priority::kBatch, {40, 44}, 16, false},
    {"blast2d", PhysicsKind::kSrhd, Priority::kBatch, {40, 44}, 16, false},
    {"mhd_blast", PhysicsKind::kSrmhd, Priority::kBatch, {40, 44}, 16, false},
    {"field_loop", PhysicsKind::kSrmhd, Priority::kBatch, {40, 44}, 16, false},
};

/// Validation bound on the L1 density error per tube, for any resolution
/// and CFL number of the mix: twice the largest error measured when the
/// benchmark was defined (sod 0.0036, mm1 0.045, mm2 0.065; the thin mm2
/// shell is barely resolved at 200 cells).
double l1_bound(const std::string& problem) {
  if (problem == "sod") return 0.008;
  if (problem == "mm1") return 0.09;
  return 0.13;  // mm2
}

/// The mix, generated one block at a time.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed ^ 0x7365'7276'655f'6d78ULL) {}

  JobSpec next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }
  /// One job of every kind and variant, in catalog order (warm-up).
  static std::vector<JobSpec> one_block() {
    std::vector<JobSpec> out;
    for (const auto& k : kKinds) {
      for (const long long res : k.res) out.push_back(spec(k, res, 0.4));
    }
    return out;
  }

 private:
  static JobSpec spec(const Kind& k, long long res, double cfl) {
    JobSpec s;
    s.name = std::string(k.problem) + "-" + std::to_string(res);
    s.problem = k.problem;
    s.physics = k.physics;
    s.priority = k.priority;
    s.resolution = res;
    s.steps = k.steps;
    s.validate = k.validate;
    s.cfl = cfl;
    return s;
  }
  void refill() {
    block_.clear();
    for (const auto& k : kKinds) {
      for (const long long res : k.res) {
        block_.push_back(spec(k, res, 0.3 + 0.1 * rng_.uniform()));
      }
    }
    rng_.shuffle(block_);
    pos_ = 0;
  }

  Rng rng_;
  std::vector<JobSpec> block_;
  std::size_t pos_ = 0;
};

struct Outstanding {
  rshc::serve::JobId id;
  std::size_t index;  ///< position in the round
  std::int64_t submitted_ns;
};

/// Per-job outcome as the generator saw it.
struct Done {
  Priority priority;
  double latency_ms;
  double lag_ms;
};

double mean_setup_ms(const std::vector<JobSpec>& specs) {
  double sum = 0.0;
  for (const auto& spec : specs) {
    sum += median_call_ms("serve.make_engine+initialize", 3, [&] {
      auto engine = rshc::serve::make_engine(spec);
      engine->initialize();
    });
  }
  return sum / static_cast<double>(specs.size());
}

/// io.*: checkpoint write and read at the largest batch-job size.
void io_probes(const std::string& dir, Result& r) {
  JobSpec spec;
  spec.problem = "mhd_blast";
  spec.physics = PhysicsKind::kSrmhd;
  spec.resolution = 44;
  auto engine = rshc::serve::make_engine(spec);
  engine->initialize();
  for (int i = 0; i < 4; ++i) engine->step();
  const std::string path = dir + "/io_probe.ckpt";
  const double write_ms = median_call_ms("io.checkpoint", 11, [&] {
    engine->checkpoint(path);
  });
  const double read_ms = median_call_ms("io.restore", 11, [&] {
    engine->restore(path);
  });
  r.metric("io.checkpoint_write_ms", write_ms, "ms");
  r.metric("io.checkpoint_read_ms", read_ms, "ms");
  r.metric("io.checkpoint_bytes",
           static_cast<double>(std::filesystem::file_size(path)), "B");
  std::filesystem::remove(path);
}

}  // namespace

Result run_serve(const Args& args) {
  const long long min_jobs = args.quick ? 40 : 1000;
  const int round_size = args.quick ? 20 : 120;
  const std::string ckpt_dir = args.work_dir + "/serve_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  rshc::serve::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 64;
  cfg.checkpoint_dir = ckpt_dir;
  Result r;

  // --- set-up, three times: service start-up plus one job of every kind
  // and variant run to idle (fills the exact-Riemann cache on the first
  // pass). The last service goes on to the timed loop.
  std::unique_ptr<rshc::serve::SimulationService> svc;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    svc.reset();
    const std::int64_t t0 = now_ns();
    svc = std::make_unique<rshc::serve::SimulationService>(cfg);
    for (const auto& spec : Mix::one_block()) {
      if (!svc->submit(spec).admitted) {
        throw std::runtime_error("warm-up job " + spec.name + " rejected");
      }
    }
    svc->wait_idle();
    setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }

  // --- timed rounds. A round runs one fixed, seeded sequence of jobs in
  // the closed loop from an idle service back to idle; every round runs
  // the same sequence. Rounds repeat until --seconds have passed and at
  // least min_jobs jobs ran. Traced run: the first half's rounds untraced.
  auto& cache = rshc::serve::RiemannCache::global();
  const auto stats0 = svc->stats();
  const std::int64_t hits0 = cache.hits();
  const std::int64_t misses0 = cache.misses();
  Mix mix(args.seed);
  std::vector<JobSpec> round_jobs;
  for (int i = 0; i < round_size; ++i) round_jobs.push_back(mix.next());
  if (args.plant_failure) {
    // Smoke test of the failure accounting: the catalog has no such
    // problem, so admission must refuse it.
    round_jobs.front().problem = "no_such_problem";
  }
  std::vector<double> round_ms;
  std::vector<Done> done_untraced;
  std::vector<Done> done_traced;
  std::map<std::string, double> worst_l1;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  long long completed = 0;
  double round_zone_updates = 0.0;
  for (const auto& spec : round_jobs) {
    round_zone_updates += static_cast<double>(rshc::serve::spec_zones(spec)) *
                          static_cast<double>(spec.steps);
  }

  for (int round = 0;; ++round) {
    const std::int64_t elapsed = now_ns() - start;
    const bool enough = elapsed >= budget_ns && completed >= min_jobs;
    if (round > 0 && enough && (!args.trace || !done_traced.empty())) break;
    const bool traced = args.trace && round > 0 && elapsed >= budget_ns / 2;
    Tracer::get().set_enabled(traced);
    std::vector<Outstanding> live;
    std::size_t next = 0;
    const std::int64_t round_start = now_ns();
    while (next < round_jobs.size() || !live.empty()) {
      while (next < round_jobs.size() &&
             static_cast<int>(live.size()) < kOutstanding) {
        const JobSpec& spec = round_jobs[next];
        const std::int64_t t_sub = now_ns();
        rshc::serve::Admission adm;
        {
          SpanScope span("serve.submit");
          adm = svc->submit(spec);
        }
        ++r.attempted;
        if (adm.admitted) {
          live.push_back({adm.id, next, t_sub});
        } else {
          r.fail("job " + spec.name + " (" + spec.problem +
                 ") rejected: " + adm.reason);
        }
        ++next;
      }
      if (live.empty()) continue;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (std::size_t i = 0; i < live.size();) {
        const auto st = svc->status(live[i].id);
        if (!st || st->state == JobState::kQueued ||
            st->state == JobState::kRunning) {
          ++i;
          continue;
        }
        const std::int64_t seen = now_ns();
        const JobSpec& spec = round_jobs[live[i].index];
        if (st->state != JobState::kCompleted) {
          r.fail("job " + spec.name + " ended " +
                 std::string(rshc::serve::job_state_name(st->state)) + ": " +
                 st->message);
        } else if (spec.validate && !(st->l1_error >= 0.0 &&
                                      st->l1_error <= l1_bound(spec.problem))) {
          r.fail("job " + spec.name + " validation L1 " +
                 std::to_string(st->l1_error) + " exceeds its bound " +
                 std::to_string(l1_bound(spec.problem)));
        }
        if (spec.validate) {
          worst_l1[spec.problem] =
              std::max(worst_l1[spec.problem], st->l1_error);
        }
        ++completed;
        const double lag =
            ms_between(live[i].submitted_ns, seen) - st->latency_ms;
        (traced ? done_traced : done_untraced)
            .push_back({spec.priority, st->latency_ms, lag});
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    round_ms.push_back(ms_between(round_start, now_ns()));
  }
  Tracer::get().set_enabled(false);
  svc->wait_idle();
  const auto stats1 = svc->stats();

  // --- service-level checks.
  if (stats1.admitted != stats1.completed + stats1.failed + stats1.cancelled +
                             stats1.queued + stats1.running ||
      stats1.submitted != stats1.admitted + stats1.rejected) {
    r.fail("ServiceStats conservation invariant violated", 0);
  }
  const auto preempted = stats1.preempted - stats0.preempted;
  const auto resumed = stats1.resumed - stats0.resumed;
  if (preempted <= 0) r.fail("no job was preempted", 0);
  if (resumed != preempted) {
    r.fail("preempted " + std::to_string(preempted) + " jobs but resumed " +
               std::to_string(resumed),
           0);
  }
  for (const auto& [problem, l1] : worst_l1) {
    r.note("worst_l1_" + problem, l1);
  }
  r.note("jobs_completed", static_cast<double>(completed));
  r.note("preemptions", static_cast<double>(preempted));
  r.note("loop", "closed, 4 outstanding, 3 workers");

  r.note("rounds", static_cast<double>(round_ms.size()));
  std::vector<Done> all = done_untraced;
  all.insert(all.end(), done_traced.begin(), done_traced.end());
  auto latencies = [](const std::vector<Done>& v, int cls) {
    std::vector<double> out;
    for (const auto& d : v) {
      if (cls < 0 || static_cast<int>(d.priority) == cls) {
        out.push_back(d.latency_ms);
      }
    }
    return out;
  };
  svc.reset();
  std::filesystem::remove_all(ckpt_dir);
  if (!args.trace) {
    double round_s = 0.0;
    for (const double ms : round_ms) round_s += ms * 1e-3;
    const auto rounds = static_cast<double>(round_ms.size());
    const auto lat = latencies(all, -1);
    r.metric("setup_s", median(setup_s), "s");
    r.metric("zone_updates_per_s", rounds * round_zone_updates / round_s, "1/s");
    r.metric("ops_per_s", static_cast<double>(lat.size()) / round_s, "1/s");
    r.metric("op_ms_p50", median(lat), "ms");
    return r;
  }

  // --- traced run: per-layer metrics.
  const auto submit_ms = Tracer::get().durations_ms("serve.submit");
  r.metric("serve.submit_us_p50", quantile(submit_ms, 0.5) * 1e3, "us");
  r.metric("serve.submit_us_p99", quantile(submit_ms, 0.99) * 1e3, "us");
  r.metric("serve.preemptions_per_job",
           static_cast<double>(preempted) / static_cast<double>(completed), "1");
  r.metric("serve.resumes_per_job",
           static_cast<double>(resumed) / static_cast<double>(completed), "1");
  const auto hits = static_cast<double>(cache.hits() - hits0);
  const auto lookups = hits + static_cast<double>(cache.misses() - misses0);
  r.metric("serve.riemann_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
           "1");
  r.metric("serve.riemann_cache_lookups", lookups, "count");
  r.metric("serve.latency_p99_ms", quantile(latencies(all, -1), 0.99), "ms");
  r.metric("serve.latency_p99_ms.high",
           quantile(latencies(all, static_cast<int>(Priority::kHigh)), 0.99),
           "ms");
  r.metric("serve.latency_p99_ms.normal",
           quantile(latencies(all, static_cast<int>(Priority::kNormal)), 0.99),
           "ms");
  r.metric("serve.latency_p99_ms.batch",
           quantile(latencies(all, static_cast<int>(Priority::kBatch)), 0.99),
           "ms");
  std::vector<double> lag;
  for (const auto& d : all) lag.push_back(d.lag_ms);
  r.metric("serve.completion_lag_ms", median(lag), "ms");
  r.metric("trace.overhead_pct",
           100.0 * (median(latencies(done_traced, -1)) /
                        median(latencies(done_untraced, -1)) -
                    1.0),
           "%");
  Tracer::get().set_enabled(true);
  r.metric("serve.job_setup_ms", mean_setup_ms(Mix::one_block()), "ms");
  io_probes(args.work_dir, r);
  Tracer::get().set_enabled(false);
  return r;
}

}  // namespace rshcbench
