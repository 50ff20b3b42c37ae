// Determinism and correctness tests for the parallel DSE executor: the
// parallel path must produce bit-identical RunResults to the serial path
// for every worker count, preserve input order, and report per-point
// observability. This file is also built TSan-instrumented when
// ARA_ENABLE_TSAN is on (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/config_error.h"
#include "dse/parallel_sweep.h"
#include "dse/sweep.h"
#include "workloads/registry.h"

namespace ara::dse {
namespace {

// Small-scale instances of one medical-imaging and one navigation
// benchmark — cheap enough to sweep repeatedly, heavy enough to exercise
// chaining, DMA and NoC paths.
std::vector<workloads::Workload> test_workloads() {
  std::vector<workloads::Workload> wls;
  wls.push_back(workloads::make_benchmark("Denoise", 0.03));
  wls.push_back(workloads::make_benchmark("EKF-SLAM", 0.03));
  return wls;
}

TEST(ParallelSweep, BitIdenticalToSerialAcrossJobCounts) {
  const auto points = paper_network_configs(6);
  const auto wls = test_workloads();

  // Serial reference: one single-point request per (point, workload),
  // point-major; `request` collects the same jobs for the executor.
  std::vector<core::RunResult> expected;
  SweepRequest request;
  for (const auto& p : points) {
    for (const auto& wl : wls) {
      expected.push_back(
          std::move(run(SweepRequest{}.add(p.config, wl)).front().result));
      request.add(p.config, wl);
    }
  }

  for (unsigned jobs : {1u, 2u, 8u}) {
    ParallelSweepExecutor executor(jobs);
    EXPECT_EQ(executor.jobs(), jobs);
    const auto got = executor.run(request.sweep);
    ASSERT_EQ(got.size(), expected.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].result, expected[i])
          << "jobs=" << jobs << " point " << i << " diverged from serial";
    }
  }
}

TEST(ParallelSweep, RunSweepDelegatesWithIdenticalResults) {
  const auto points = paper_network_configs(3);
  const auto wl = workloads::make_benchmark("Denoise", 0.03);

  const auto serial = run(SweepRequest{}.add_points(points, wl));  // jobs = 1
  const auto parallel =
      run(SweepRequest{}.add_points(points, wl).with_jobs(4));
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result, parallel[i].result);
  }
}

// The deprecated run_point/run_sweep shims (and their migration A/B test)
// are gone: every caller uses dse::run, and ara_analyze's no-deprecated-api
// rule fails the analyze gate on any reintroduction of those identifiers.
// dse::run's own determinism coverage lives in the tests around this
// comment (serial-vs-parallel, jobs 1/2/8, cached-vs-fresh).
TEST(SweepRequestMigration, SingleAddMirrorsRemovedRunPointShape) {
  // What run_point(cfg, wl, &snap) used to return is .front() of a
  // one-element request — keep that shape pinned for downstream scripts.
  const auto points = paper_network_configs(6);
  const auto wl = workloads::make_benchmark("EKF-SLAM", 0.03);

  const auto one = run(SweepRequest{}.add(points[0].config, wl));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_FALSE(one.front().from_cache);
  EXPECT_FALSE(one.front().metrics.empty());

  const auto sweep = run(SweepRequest{}.add_points(points, wl));
  ASSERT_EQ(sweep.size(), points.size());
  EXPECT_EQ(one.front().result, sweep.front().result);
}

TEST(ParallelSweep, ReportsObservabilityPerPoint) {
  const auto points = paper_network_configs(3);
  const auto wl = workloads::make_benchmark("Denoise", 0.03);

  ParallelSweepExecutor executor(2);
  const auto results =
      executor.run(SweepRequest{}.add_points(points, wl).sweep);
  ASSERT_EQ(results.size(), points.size());
  for (const auto& r : results) {
    EXPECT_GT(r.events, 0u);
    EXPECT_GE(r.wall_seconds, 0.0);
    EXPECT_LT(r.worker, 2u);
    EXPECT_GT(r.result.makespan, 0u);
  }
}

TEST(ParallelSweep, PreservesInputOrderNotCompletionOrder) {
  // Mixed sizes: the 24-island points take longer than the 3-island ones,
  // so completion order differs from input order under contention.
  std::vector<ConfigPoint> points;
  for (std::uint32_t islands : {24u, 3u, 12u, 6u}) {
    points.push_back(paper_network_configs(islands)[0]);
  }
  const auto wl = workloads::make_benchmark("Denoise", 0.03);

  ParallelSweepExecutor executor(4);
  const auto results =
      executor.run(SweepRequest{}.add_points(points, wl).sweep);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto ref = run(SweepRequest{}.add(points[i].config, wl));
    EXPECT_EQ(results[i].result.config, ref.front().result.config);
  }
}

TEST(ParallelSweep, PropagatesWorkerExceptions) {
  ParallelSweepExecutor executor(2);
  std::vector<SweepJob> bad_jobs(3);  // null workloads
  for (auto& j : bad_jobs) j.config = core::ArchConfig::paper_baseline(3);
  EXPECT_THROW(executor.run(bad_jobs), ConfigError);
}

// Regression: workers used to keep claiming (and simulating) the rest of
// the sweep after another worker had already thrown. With 64 jobs and 4
// workers, job 0 failing must stop the pool at roughly one job per worker
// — not burn through all 64.
TEST(ParallelSweep, StopsClaimingAfterFirstFailure) {
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kJobs = 64;
  std::atomic<int> claims{0};
  std::atomic<bool> thrown{false};

  const ParallelSweepExecutor::JobRunner runner =
      [&](const SweepJob&, std::size_t index, unsigned) -> SweepResult {
    claims.fetch_add(1);
    if (index == 0) {
      // Let every worker claim its first job, then fail the sweep.
      while (claims.load() < static_cast<int>(kWorkers)) {
        std::this_thread::yield();
      }
      thrown.store(true);
      throw ConfigError("job 0 failed");
    }
    // Hold the other workers inside their current job until the failure
    // has happened, then give the stop flag ample time to be raised
    // before this worker returns to the claim loop.
    while (!thrown.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return SweepResult{};
  };

  ParallelSweepExecutor executor(kWorkers);
  std::vector<SweepJob> sweep_jobs(kJobs);
  EXPECT_THROW(executor.run_with(sweep_jobs, runner), ConfigError);
  // One claim per worker, plus a small allowance for a worker that raced
  // past the stop flag — nowhere near the 64 the old code would burn.
  EXPECT_LE(claims.load(), static_cast<int>(kWorkers) + 4);
}

// Regression: ErrorSlot used to keep the FIRST exception in completion
// order, so which error surfaced from a multi-failure sweep depended on
// thread scheduling. Now the lowest-indexed failing job wins — the error
// a serial run would hit first — even when it is captured last.
TEST(ParallelSweep, LowestIndexErrorWinsDeterministically) {
  constexpr std::size_t kJobs = 8;
  for (unsigned workers : {1u, 2u, 8u}) {
    const int barrier =
        static_cast<int>(std::min<std::size_t>(workers, kJobs));
    std::atomic<int> claims{0};
    std::atomic<int> thrown{0};

    const ParallelSweepExecutor::JobRunner runner =
        [&](const SweepJob&, std::size_t index, unsigned) -> SweepResult {
      claims.fetch_add(1);
      if (index == 0) {
        // Fail LAST: every other concurrently-claimed job throws first,
        // so completion order and index order disagree.
        while (thrown.load() < barrier - 1) std::this_thread::yield();
        throw ConfigError("job 0");
      }
      while (claims.load() < barrier) std::this_thread::yield();
      thrown.fetch_add(1);
      throw ConfigError("job " + std::to_string(index));
    };

    ParallelSweepExecutor executor(workers);
    std::vector<SweepJob> sweep_jobs(kJobs);
    try {
      executor.run_with(sweep_jobs, runner);
      FAIL() << "sweep with failing jobs did not throw (workers="
             << workers << ")";
    } catch (const ConfigError& e) {
      // ConfigError prefixes its messages; the payload must be job 0's.
      EXPECT_NE(std::string(e.what()).find("job 0"), std::string::npos)
          << "workers=" << workers << " surfaced: " << e.what();
    }
  }
}

TEST(ParallelSweep, ZeroJobsPicksHardwareConcurrency) {
  ParallelSweepExecutor executor(0);
  EXPECT_GE(executor.jobs(), 1u);
}

TEST(ParallelSweep, EmptyJobListIsFine) {
  ParallelSweepExecutor executor(4);
  EXPECT_TRUE(executor.run(std::vector<SweepJob>{}).empty());
}

}  // namespace
}  // namespace ara::dse
