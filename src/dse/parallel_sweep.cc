#include "dse/parallel_sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/config_error.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/system.h"
#include "obs/clock.h"

namespace ara::dse {

namespace {

unsigned resolve_jobs(unsigned jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// The exception from the lowest-indexed failing job. Keeping the winner by
/// job index (not completion order) makes which error surfaces from a
/// multi-failure sweep deterministic across runs and worker counts — the
/// same error a serial run would hit first. The only cross-thread mutable
/// state the pool shares besides the job cursor and the stop flag.
class ErrorSlot {
 public:
  void capture(std::size_t index, std::exception_ptr error)
      ARA_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (!error_ || index < index_) {
      error_ = std::move(error);
      index_ = index;
    }
  }
  void rethrow_if_set() ARA_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  common::Mutex mu_;
  std::exception_ptr error_ ARA_GUARDED_BY(mu_);
  std::size_t index_ ARA_GUARDED_BY(mu_) = 0;
};

SweepResult run_one(const SweepJob& job, unsigned worker) {
  config_check(job.workload != nullptr, "SweepJob has no workload");
  SweepResult out;
  out.worker = worker;
  // Host wall-clock is observability output only (SweepResult.wall_seconds);
  // it never feeds back into simulation state or results. Read through the
  // obs::MonotonicClock seam — the sanctioned wall-clock site — so this
  // file stays clean under ara_lint's no-wall-clock rule.
  obs::MonotonicClock& clock = obs::MonotonicClock::host();
  const std::uint64_t t0_ns = clock.now_ns();
  {
    core::System system(job.config);
    system.simulator().set_self_profiling(true);
    out.result = system.run(*job.workload);
    out.events = system.simulator().events_processed();
    out.metrics = obs::MetricsSnapshot::capture(system.stats());
    out.event_kinds = system.simulator().kind_stats();
  }  // the System's teardown is part of the point's cost
  out.wall_seconds = static_cast<double>(clock.now_ns() - t0_ns) * 1e-9;
  return out;
}

}  // namespace

ParallelSweepExecutor::ParallelSweepExecutor(unsigned jobs)
    : jobs_(resolve_jobs(jobs)) {}

std::vector<SweepResult> ParallelSweepExecutor::run(
    const std::vector<SweepJob>& sweep_jobs) const {
  return run_with(sweep_jobs,
                  [](const SweepJob& job, std::size_t, unsigned worker) {
                    return run_one(job, worker);
                  });
}

std::vector<SweepResult> ParallelSweepExecutor::run_with(
    const std::vector<SweepJob>& sweep_jobs, const JobRunner& runner) const {
  std::vector<SweepResult> results(sweep_jobs.size());

  // Work distribution: an atomic cursor instead of static striding, so a
  // slow point (24 islands, chaining-heavy workload) doesn't idle the other
  // workers. Each worker writes only results[i] for the i values it claimed,
  // so result slots are race-free by construction.
  //
  // `failed` stops the pool promptly on first error: once any job throws,
  // claiming further jobs would only burn the pool on a sweep that is going
  // to rethrow anyway (a long-running server shares this pool across
  // requests, so a doomed request must not starve the others). Jobs already
  // in flight finish; unclaimed jobs stay default-initialized.
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  ErrorSlot error;

  auto drain = [&](unsigned worker) {
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= sweep_jobs.size()) return;
      try {
        results[i] = runner(sweep_jobs[i], i, worker);
      } catch (...) {
        error.capture(i, std::current_exception());
        failed.store(true, std::memory_order_release);
      }
    }
  };

  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(jobs_, sweep_jobs.size()));
  if (workers <= 1) {
    drain(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back(drain, w);
    }
    for (auto& t : pool) t.join();
  }

  error.rethrow_if_set();
  return results;
}

std::vector<SweepResult> ParallelSweepExecutor::run(
    const std::vector<ConfigPoint>& points,
    const std::vector<const workloads::Workload*>& workloads) const {
  std::vector<SweepJob> sweep_jobs;
  sweep_jobs.reserve(points.size() * workloads.size());
  for (const auto& p : points) {
    for (const auto* wl : workloads) {
      sweep_jobs.push_back({p.config, wl});
    }
  }
  return run(sweep_jobs);
}

std::vector<SweepResult> ParallelSweepExecutor::run(
    const std::vector<ConfigPoint>& points,
    const workloads::Workload& workload) const {
  return run(points, std::vector<const workloads::Workload*>{&workload});
}

}  // namespace ara::dse
