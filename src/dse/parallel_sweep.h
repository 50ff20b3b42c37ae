// Parallel design-space-sweep executor.
//
// Every (ArchConfig, Workload) pair of a sweep is an independent simulation:
// each job constructs its own core::System (and therefore its own Simulator,
// stats, RNG streams and trace collector), so nothing but the read-only
// Workload descriptions is shared between workers. A fixed-size pool of
// std::thread workers drains the job list through an atomic cursor and
// writes each result into its pre-allocated, input-order slot — results are
// bit-identical to the serial path regardless of worker count or scheduling
// order (asserted by tests/parallel_sweep_test.cc).
//
// Threading model (see README "Threading model"): one Simulator per thread,
// no cross-thread event scheduling, no shared mutable simulator state. The
// only process-wide state is check::enabled()'s override, an atomic.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dse/sweep.h"

namespace ara::dse {

class ParallelSweepExecutor {
 public:
  /// `jobs` = number of worker threads; 0 picks
  /// std::thread::hardware_concurrency() (min 1).
  explicit ParallelSweepExecutor(unsigned jobs = 0);

  unsigned jobs() const { return jobs_; }

  /// Run every job; results land in input order. Worker threads never share
  /// simulator state. If any job throws, the pool stops claiming further
  /// jobs promptly (jobs already being simulated finish) and the exception
  /// from the lowest-indexed failing job — deterministic across runs and
  /// worker counts — is rethrown on the calling thread.
  std::vector<SweepResult> run(const std::vector<SweepJob>& sweep_jobs) const;

  /// What a worker does with one claimed job: (job, input index, worker).
  /// The default runner simulates the job on a fresh core::System.
  using JobRunner =
      std::function<SweepResult(const SweepJob&, std::size_t, unsigned)>;

  /// run() with an injected per-job runner. This is the pool's real entry
  /// point: tests use it to pin the claim/stop/error-selection contract
  /// (first failure halts claiming, lowest-index error wins) without paying
  /// for real simulations.
  std::vector<SweepResult> run_with(const std::vector<SweepJob>& sweep_jobs,
                                    const JobRunner& runner) const;

 private:
  unsigned jobs_;
};

}  // namespace ara::dse
