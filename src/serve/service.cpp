#include "rshc/serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "rshc/common/env.hpp"
#include "rshc/common/error.hpp"
#include "rshc/common/log.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/serve/scenario.hpp"

#if RSHC_OBS_ENABLED
#include "rshc/obs/journal.hpp"
// Journal a service lifecycle event. Not routed through the journal.hpp
// OFF-stub on purpose: the obs-off CI lane nm-scans serve objects for
// rshc::obs symbols, so every journal touch must vanish at preprocessing
// time, not rely on the stub inlining away.
#define RSHC_SERVE_JOURNAL(...) \
  ::rshc::obs::journal::Journal::global().event(__VA_ARGS__)
namespace {
using rshc::obs::journal::Field;
}  // namespace
#else
#define RSHC_SERVE_JOURNAL(...) ((void)0)
#endif

namespace rshc::serve {
namespace {

using Clock = parallel::Monitor::Clock;
using Millis = std::chrono::duration<double, std::milli>;

[[nodiscard]] bool terminal(JobState s) {
  return s == JobState::kCompleted || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

}  // namespace

std::string_view physics_name(PhysicsKind k) {
  return k == PhysicsKind::kSrhd ? "srhd" : "srmhd";
}

std::string_view priority_name(Priority p) {
  switch (p) {
    case Priority::kBatch:
      return "batch";
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      break;
  }
  return "normal";
}

std::string_view job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      break;
  }
  return "cancelled";
}

ServiceConfig service_config_from_env() {
  ServiceConfig cfg;
  cfg.workers = static_cast<unsigned>(std::max(
      1LL, env_int("RSHC_SERVE_WORKERS", static_cast<long long>(cfg.workers))));
  cfg.queue_capacity = static_cast<std::size_t>(
      std::max(1LL, env_int("RSHC_SERVE_QUEUE_CAP",
                            static_cast<long long>(cfg.queue_capacity))));
  cfg.zone_budget =
      std::max(1LL, env_int("RSHC_SERVE_ZONE_BUDGET", cfg.zone_budget));
  cfg.stall_timeout = std::chrono::milliseconds(std::max(
      0LL, env_int("RSHC_SERVE_STALL_MS",
                   static_cast<long long>(cfg.stall_timeout.count()))));
  if (const char* dir = std::getenv("RSHC_SERVE_CKPT_DIR");
      dir != nullptr && *dir != '\0') {
    cfg.checkpoint_dir = dir;
  }
  return cfg;
}

// All non-atomic mutable fields are guarded by SimulationService::mutex_
// (stated here once; Job is private to the service and never escapes it).
struct SimulationService::Job {
  JobSpec spec;
  JobId id = kInvalidJob;
  long long zones = 0;
  std::string ckpt_path;  ///< eviction checkpoint location

  JobState state = JobState::kQueued;
  int preempts = 0;
  int resumes = 0;
  int stalls = 0;
  bool has_checkpoint = false;  ///< eviction checkpoint awaits resume
  parallel::StallLatch stall;   ///< fed by scan_stalls(), leave_running()
  std::int64_t seq = 0;         ///< FIFO order within a priority class
  Clock::time_point submitted;
  double latency_ms = -1.0;
  double l1_error = -1.0;
  std::string message;

  // relaxed: progress counter; the runner increments, status() and the
  // run loop only need eventual visibility.
  std::atomic<int> steps_done{0};
  // relaxed: set by submit()/preempt(), polled by the runner at step
  // boundaries; a one-step delay in visibility is acceptable.
  std::atomic<bool> preempt_requested{false};

#if RSHC_OBS_ENABLED
  /// Per-job metrics registry, installed thread-locally while the job's
  /// worker drives the engine (the isolation piece of the service).
  obs::Registry registry;
#endif
};

SimulationService::SimulationService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  std::error_code ec;
  std::filesystem::create_directories(cfg_.checkpoint_dir, ec);
  pool_ = std::make_unique<parallel::ThreadPool>(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    pool_->enqueue([this] { worker_loop(); });
  }
  if (cfg_.stall_timeout.count() > 0) {
    stall_probe_ = parallel::Monitor::global().add(
        parallel::StallLatch(cfg_.stall_timeout).period(),
        [this] { scan_stalls(); });
  }
}

SimulationService::~SimulationService() {
  shutdown();
  pool_.reset();  // joins workers; running jobs drain first
  if (stall_probe_ != 0) parallel::Monitor::global().remove(stall_probe_);
}

Admission SimulationService::submit(const JobSpec& spec) {
  // Spec validation needs no service state; run it outside the lock.
  std::string reject;
  const long long zones = spec_zones(spec);
  if (!known_problem(spec.physics, spec.problem)) {
    reject = "unknown problem '" + spec.problem + "' for physics " +
             std::string(physics_name(spec.physics));
  } else if (spec.steps <= 0) {
    reject = "steps must be positive";
  } else if (spec.resolution < 2) {
    reject = "resolution must be >= 2";
  } else if (spec.validate && !validation_supported(spec)) {
    reject = "no exact reference for validation of problem '" + spec.problem +
             "'";
  }

  RSHC_SERVE_JOURNAL("job_submit",
                     {Field("name", spec.name), Field("problem", spec.problem),
                      Field("physics", physics_name(spec.physics)),
                      Field("priority", priority_name(spec.priority)),
                      Field("zones", static_cast<std::int64_t>(zones))});

  JobId id = kInvalidJob;
  JobPtr victim;
  {
    LockGuard lock(mutex_);
    ++submitted_;
    if (reject.empty()) {
      if (stopping_) {
        reject = "service shutting down";
      } else if (queue_.size() >= cfg_.queue_capacity) {
        reject = "queue full (capacity " +
                 std::to_string(cfg_.queue_capacity) + ")";
      } else if (zones_admitted_ + zones > cfg_.zone_budget) {
        reject = "zone budget exceeded (" + std::to_string(zones_admitted_) +
                 " admitted + " + std::to_string(zones) + " requested > " +
                 std::to_string(cfg_.zone_budget) + ")";
      }
    }
    if (!reject.empty()) {
      ++rejected_;
    } else {
      id = next_id_++;
      auto job = std::make_shared<Job>();
      job->spec = spec;
      job->id = id;
      job->zones = zones;
      job->ckpt_path =
          cfg_.checkpoint_dir + "/job_" + std::to_string(id) + ".ckpt";
      job->submitted = Clock::now();
      job->stall = parallel::StallLatch(cfg_.stall_timeout);
      job->seq = next_seq_++;
      jobs_.emplace(id, job);
      queue_.push_back(job);
      zones_admitted_ += zones;
      ++admitted_;
      if (idle_workers_ == 0) {
        // Saturated: pick the weakest running job strictly below the new
        // one's class (lowest class first, youngest within a class) and
        // mark it for preemption so this submission gets a worker.
        for (const auto& j : running_jobs_) {
          if (j->preempt_requested.load(std::memory_order_relaxed)) continue;
          if (j->spec.priority >= spec.priority) continue;
          if (!victim || j->spec.priority < victim->spec.priority ||
              (j->spec.priority == victim->spec.priority &&
               j->seq > victim->seq)) {
            victim = j;
          }
        }
        if (victim) victim->preempt_requested.store(true,
                                                    std::memory_order_relaxed);
      }
    }
  }

  if (id == kInvalidJob) {
    RSHC_SERVE_JOURNAL("job_reject", {Field("name", spec.name),
                                      Field("reason", reject)});
    return Admission{false, kInvalidJob, reject};
  }
  RSHC_SERVE_JOURNAL("job_admit", {Field("job", id), Field("name", spec.name)});
  if (victim) {
    RSHC_SERVE_JOURNAL("job_preempt_request",
                       {Field("job", victim->id), Field("for_job", id)});
  }
  work_cv_.notify_one();
  return Admission{true, id, ""};
}

bool SimulationService::preempt(JobId id) {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->state != JobState::kRunning) {
    return false;
  }
  it->second->preempt_requested.store(true, std::memory_order_relaxed);
  return true;
}

void SimulationService::worker_loop() {
  for (;;) {
    JobPtr job;
    {
      LockGuard lock(mutex_);
      ++idle_workers_;
      work_cv_.wait(lock.native_lock(), [&] {
        mutex_.assert_held();
        return stopping_ || !queue_.empty();
      });
      --idle_workers_;
      if (queue_.empty()) return;  // stopping, nothing left to drain
      auto best = queue_.begin();
      for (auto it = std::next(best); it != queue_.end(); ++it) {
        if ((*it)->spec.priority > (*best)->spec.priority ||
            ((*it)->spec.priority == (*best)->spec.priority &&
             (*it)->seq < (*best)->seq)) {
          best = it;
        }
      }
      job = *best;
      queue_.erase(best);
      job->state = JobState::kRunning;
      running_jobs_.push_back(job);
    }
    run_job(job);
  }
}

void SimulationService::run_job(const JobPtr& job) {
  bool resuming = false;
  {
    LockGuard lock(mutex_);
    resuming = job->has_checkpoint;
    job->has_checkpoint = false;  // this run consumes it
    if (resuming) {
      ++job->resumes;
      ++resumed_;
    }
  }
  if (resuming) {
    RSHC_SERVE_JOURNAL("job_resume",
                       {Field("job", job->id),
                        Field("steps_done", job->steps_done.load(
                                                std::memory_order_relaxed))});
  } else {
    RSHC_SERVE_JOURNAL("job_start", {Field("job", job->id),
                                     Field("name", job->spec.name)});
  }

  bool preempt_now = false;
  std::string fail;
  double l1 = -1.0;
  {
#if RSHC_OBS_ENABLED
    // Everything the engine records below lands in this job's registry,
    // not the process-global one: per-job isolation.
    obs::ScopedRegistry scope(job->registry);
#endif
    try {
      auto engine = make_engine(job->spec);
      if (resuming) {
        engine->restore(job->ckpt_path);
        // Delete the consumed checkpoint, so a later preemption writes a
        // new file instead of truncating this one (on ext4 with online
        // discard, freeing its blocks is a synchronous discard in open())
        // and finished jobs leave no files behind.
        std::error_code ec;
        std::filesystem::remove(job->ckpt_path, ec);
      } else {
        engine->initialize();
      }
      while (job->steps_done.load(std::memory_order_relaxed) <
             job->spec.steps) {
        // Delay first: a preempt requested during it lands before the step.
        if (job->spec.step_delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(job->spec.step_delay_ms));
        }
        if (job->preempt_requested.load(std::memory_order_relaxed)) {
          engine->checkpoint(job->ckpt_path);
          preempt_now = true;
          break;
        }
        engine->step();
        job->steps_done.fetch_add(1, std::memory_order_relaxed);
      }
      if (!preempt_now) {
        if (job->spec.validate) {
          l1 = engine->validation_error(RiemannCache::global());
        }
        if (!job->spec.result_checkpoint.empty()) {
          engine->checkpoint(job->spec.result_checkpoint);
        }
      }
    } catch (const std::exception& e) {
      fail = e.what();
      preempt_now = false;
    }
  }

  if (preempt_now) {
    [[maybe_unused]] int steps_done = 0;  // journal only
    {
      LockGuard lock(mutex_);
      job->preempt_requested.store(false, std::memory_order_relaxed);
      job->has_checkpoint = true;
      job->state = JobState::kQueued;
      job->seq = next_seq_++;  // back of its priority class
      ++job->preempts;
      ++preempted_;
      leave_running(job);
      queue_.push_back(job);
      steps_done = job->steps_done.load(std::memory_order_relaxed);
    }
    RSHC_SERVE_JOURNAL("job_preempt", {Field("job", job->id),
                                       Field("steps_done", steps_done)});
    RSHC_OBS_COUNT("serve.jobs.preempted", 1);
    work_cv_.notify_one();
    return;
  }

  const bool ok = fail.empty();
  double latency_ms = 0.0;
  {
    LockGuard lock(mutex_);
    leave_running(job);
    job->l1_error = l1;
    latency_ms = Millis(Clock::now() - job->submitted).count();
    job->latency_ms = latency_ms;
    if (ok) {
      job->state = JobState::kCompleted;
      ++completed_;
    } else {
      job->state = JobState::kFailed;
      job->message = fail;
      ++failed_;
    }
    zones_admitted_ -= job->zones;
  }
  if (ok) {
    RSHC_SERVE_JOURNAL("job_complete", {Field("job", job->id),
                                        Field("latency_ms", latency_ms),
                                        Field("l1_error", l1)});
    RSHC_OBS_COUNT("serve.jobs.completed", 1);
  } else {
    RSHC_SERVE_JOURNAL("job_failed",
                       {Field("job", job->id), Field("error", fail)});
    RSHC_OBS_COUNT("serve.jobs.failed", 1);
    log::warn("serve: job ", job->id, " (", job->spec.name,
              ") failed: ", fail);
  }
  done_cv_.notify_all();
}

void SimulationService::leave_running(const JobPtr& job) {
  std::erase(running_jobs_, job);
  // End the stall episode as an idle observation does, so a resumed job
  // does not count its time in the queue as quiet.
  (void)job->stall.observe(job->steps_done.load(std::memory_order_relaxed),
                           /*busy=*/false, Clock::now());
}

void SimulationService::scan_stalls() {
  struct Fired {
    JobId id = kInvalidJob;
    std::string name;
    double idle_ms = 0.0;
  };
  std::vector<Fired> fired;
  const auto now = Clock::now();
  {
    LockGuard lock(mutex_);
    for (const auto& job : running_jobs_) {
      const auto quiet =
          job->stall.observe(job->steps_done.load(std::memory_order_relaxed),
                             /*busy=*/true, now);
      if (!quiet) continue;
      ++job->stalls;
      ++stalled_;
      fired.push_back({job->id, job->spec.name, Millis(*quiet).count()});
    }
  }
  for (const auto& f : fired) {
    RSHC_SERVE_JOURNAL("job_stall", {Field("job", f.id),
                                     Field("name", f.name),
                                     Field("idle_ms", f.idle_ms)});
    static log::RateLimit limit(std::chrono::milliseconds(1000));
    log::warn_limited(limit, "serve: job ", f.id, " (", f.name,
                      ") made no step progress for ", f.idle_ms, " ms");
  }
}

JobStatus SimulationService::status_of(const Job& job) const {
  JobStatus st;
  st.id = job.id;
  st.name = job.spec.name;
  st.state = job.state;
  st.priority = job.spec.priority;
  st.steps_done = job.steps_done.load(std::memory_order_relaxed);
  st.steps_total = job.spec.steps;
  st.preempts = job.preempts;
  st.resumes = job.resumes;
  st.stalls = job.stalls;
  st.latency_ms = job.latency_ms;
  st.l1_error = job.l1_error;
  st.message = job.message;
  return st;
}

JobStatus SimulationService::wait(JobId id) {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  RSHC_REQUIRE(it != jobs_.end(),
               "unknown job id " + std::to_string(id));
  const JobPtr job = it->second;
  done_cv_.wait(lock.native_lock(), [&] {
    mutex_.assert_held();
    return terminal(job->state);
  });
  return status_of(*job);
}

void SimulationService::wait_idle() {
  LockGuard lock(mutex_);
  done_cv_.wait(lock.native_lock(), [&] {
    mutex_.assert_held();
    return queue_.empty() && running_jobs_.empty();
  });
}

std::optional<JobStatus> SimulationService::status(JobId id) const {
  LockGuard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return status_of(*it->second);
}

std::vector<JobStatus> SimulationService::statuses() const {
  LockGuard lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(status_of(*job));
  return out;
}

ServiceStats SimulationService::stats() const {
  LockGuard lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.preempted = preempted_;
  s.resumed = resumed_;
  s.stalled = stalled_;
  s.zones_admitted = zones_admitted_;
  s.queued = static_cast<int>(queue_.size());
  s.running = static_cast<int>(running_jobs_.size());
  return s;
}

void SimulationService::shutdown() {
  std::vector<JobPtr> cancelled;
  {
    LockGuard lock(mutex_);
    stopping_ = true;
    for (auto& job : queue_) {
      job->state = JobState::kCancelled;
      job->latency_ms = Millis(Clock::now() - job->submitted).count();
      zones_admitted_ -= job->zones;
      ++cancelled_;
      cancelled.push_back(job);
    }
    queue_.clear();
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for ([[maybe_unused]] const auto& job : cancelled) {
    RSHC_SERVE_JOURNAL("job_cancel", {Field("job", job->id)});
    RSHC_OBS_COUNT("serve.jobs.cancelled", 1);
  }
}

#if RSHC_OBS_ENABLED

std::vector<obs::Snapshot> SimulationService::job_snapshots() const {
  std::vector<JobPtr> jobs;
  {
    LockGuard lock(mutex_);
    jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) jobs.push_back(job);
  }
  std::vector<obs::Snapshot> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) out.push_back(job->registry.snapshot());
  return out;
}

std::optional<obs::Snapshot> SimulationService::job_snapshot(JobId id) const {
  JobPtr job;
  {
    LockGuard lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
  }
  return job->registry.snapshot();
}

#endif  // RSHC_OBS_ENABLED

}  // namespace rshc::serve
