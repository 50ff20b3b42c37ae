// Tests for the ara::check correctness harness: the invariant checker must
// pass cleanly on healthy runs across execution modes without perturbing
// results, and — the part that proves the checker actually checks — a
// deliberately injected conservation bug must be caught.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "check/check.h"
#include "check/fuzz.h"
#include "core/arch_config.h"
#include "core/config_digest.h"
#include "core/run_result.h"
#include "core/system.h"
#include "sim/event_queue.h"
#include "workloads/registry.h"

namespace ara::check {
namespace {

workloads::Workload small_workload() {
  return workloads::make_benchmark("Denoise", 0.03);
}

/// A ledger that satisfies every conservation law (5 invocations of a
/// 4-task DFG with 2 chain edges, one edge per job spilled).
RunLedger balanced_ledger() {
  RunLedger l;
  l.invocations = 5;
  l.tasks_expected = 20;
  l.chain_edges_expected = 10;
  l.jobs_submitted = 5;
  l.jobs_completed = 5;
  l.gam_requests = 5;
  l.interrupts = 5;
  l.tasks_started = 20;
  l.chains_direct = 5;
  l.chains_spilled = 5;
  l.events_scheduled = 400;
  l.events_dispatched = 400;
  l.events_pending = 0;
  return l;
}

TEST(VerifyLedger, AcceptsBalancedLedger) {
  EXPECT_GT(verify_ledger(balanced_ledger()), 0u);
}

// Every conservation law individually: corrupt exactly one field and the
// verifier must throw a CheckError naming a violated invariant.
TEST(VerifyLedger, CatchesEveryCorruptedField) {
  struct Corruption {
    const char* name;
    std::uint64_t RunLedger::* field;
  };
  const Corruption corruptions[] = {
      {"jobs_submitted", &RunLedger::jobs_submitted},
      {"jobs_completed", &RunLedger::jobs_completed},
      {"gam_requests", &RunLedger::gam_requests},
      {"interrupts", &RunLedger::interrupts},
      {"tasks_started", &RunLedger::tasks_started},
      {"chains_direct", &RunLedger::chains_direct},
      {"chains_spilled", &RunLedger::chains_spilled},
      {"events_scheduled", &RunLedger::events_scheduled},
      {"events_dispatched", &RunLedger::events_dispatched},
      {"events_pending", &RunLedger::events_pending},
  };
  for (const auto& c : corruptions) {
    RunLedger bad = balanced_ledger();
    bad.*(c.field) += 1;  // one lost/duplicated job, task, chain or event
    try {
      verify_ledger(bad);
      FAIL() << "corrupting " << c.name << " was not detected";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("invariant violated"),
                std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

// Acceptance-criterion negative test: take the ledger of a real, healthy
// run and inject a conservation bug (a completed job that never happened).
// The same verifier that just passed the pristine ledger must now throw.
TEST(VerifyLedger, InjectedConservationBugInRealRunIsCaught) {
  ScopedEnable on;
  core::System sys(core::ArchConfig::paper_baseline(6));
  sys.run(small_workload());
  ASSERT_NE(sys.checker(), nullptr);

  const RunLedger& healthy = sys.checker()->last_ledger();
  EXPECT_GT(verify_ledger(healthy), 0u);

  RunLedger corrupted = healthy;
  corrupted.jobs_completed += 1;
  EXPECT_THROW(verify_ledger(corrupted), CheckError);
}

TEST(InvariantChecker, CleanRunsAcrossExecutionModes) {
  ScopedEnable on;
  const auto wl = small_workload();

  core::ArchConfig composable = core::ArchConfig::ring_design(6, 2, 32);
  core::ArchConfig sharing = composable;
  sharing.island.spm_sharing = true;
  core::ArchConfig per_task = composable;
  per_task.force_per_task = true;
  core::ArchConfig mono = composable;
  mono.mode = abc::ExecutionMode::kMonolithic;

  for (const auto& cfg : {composable, sharing, per_task, mono}) {
    core::System sys(cfg);
    const auto r = sys.run(wl);
    EXPECT_EQ(r.jobs, wl.invocations);
    ASSERT_NE(sys.checker(), nullptr);
    EXPECT_GT(sys.checker()->checks_passed(), 0u);
    EXPECT_GE(sys.checker()->samples(), 1u);
  }
}

TEST(InvariantChecker, CheckedRunIsBitIdenticalToUnchecked) {
  const core::ArchConfig cfg = core::ArchConfig::ring_design(6, 2, 32);
  const auto wl = small_workload();

  core::RunResult plain;
  std::uint64_t plain_events = 0;
  {
    ScopedEnable off(false);
    core::System sys(cfg);
    plain = sys.run(wl);
    plain_events = sys.simulator().events_processed();
    EXPECT_EQ(sys.checker(), nullptr);
  }

  ScopedEnable on;
  core::System sys(cfg);
  const core::RunResult checked = sys.run(wl);
  EXPECT_EQ(checked, plain) << "invariant checking perturbed the simulation";
  EXPECT_EQ(sys.simulator().events_processed(), plain_events);
}

// Stats accumulate across run() calls on one System; the ledger must be
// per-run deltas, so a second run verifies against its own expectations.
TEST(InvariantChecker, MultiRunSystemVerifiesPerRun) {
  ScopedEnable on;
  core::System sys(core::ArchConfig::paper_baseline(3));
  const auto wl = small_workload();
  sys.run(wl);
  const std::uint64_t first_checks = sys.checker()->checks_passed();
  sys.run(wl);
  EXPECT_EQ(sys.checker()->last_ledger().invocations, wl.invocations);
  EXPECT_GT(sys.checker()->checks_passed(), first_checks);
}

TEST(CheckEnable, OverrideBeatsEnvironmentAndRestores) {
  clear_enabled_override();
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
  {
    ScopedEnable on;
    EXPECT_TRUE(enabled());
    {
      ScopedEnable off(false);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());  // restored to the pre-scope override
  clear_enabled_override();
}

// What a front end does for `--check=0` under ARA_CHECK=1.
TEST(CheckEnable, DisabledOverrideBeatsEnvironmentOn) {
  const char* old = std::getenv("ARA_CHECK");
  const std::string saved = old != nullptr ? old : "";  // "" is off too
  ::setenv("ARA_CHECK", "1", 1);
  set_enabled(false);
  EXPECT_FALSE(enabled());
  clear_enabled_override();
  EXPECT_TRUE(enabled());
  ::setenv("ARA_CHECK", saved.c_str(), 1);
}

// ------------------------------------------------- simulator observer hook

TEST(SimulatorObserver, FiresEveryPeriodWithoutEnteringEventAccounting) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  sim.set_observer([&fired] { ++fired; }, 10);
  for (int i = 0; i < 95; ++i) {
    sim.schedule_at(static_cast<Tick>(i), [] {});
  }
  EXPECT_EQ(sim.events_scheduled(), 95u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 95u);  // observer is not an event
  EXPECT_EQ(fired, 9u);                    // floor(95 / 10)
  sim.clear_observer();
}

TEST(SimulatorObserver, ZeroPeriodIsRejected) {
  sim::Simulator sim;
  EXPECT_THROW(sim.set_observer([] {}, 0), sim::ScheduleError);
}

// ---------------------------------------------------------- fuzz generator

TEST(FuzzGenerator, SameSeedSamePoint) {
  const FuzzPoint a = generate_point(42);
  const FuzzPoint b = generate_point(42);
  EXPECT_EQ(core::canonical_text(a.config), core::canonical_text(b.config));
  EXPECT_EQ(core::canonical_text(a.workload),
            core::canonical_text(b.workload));
}

TEST(FuzzGenerator, DifferentSeedsExploreDifferentPoints) {
  const FuzzPoint a = generate_point(1);
  const FuzzPoint b = generate_point(2);
  EXPECT_NE(core::canonical_text(a.config) + core::canonical_text(a.workload),
            core::canonical_text(b.config) + core::canonical_text(b.workload));
}

// A repro file names only a seed and its limits, so the stream behind
// generate_point is pinned: the same seed must keep producing the same
// point, byte for byte.
TEST(FuzzGenerator, PointsArePinnedBySeed) {
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {1, 0x33254e259af693aaull},
      {7, 0x6a15706e05c0773aull},
      {42, 0xc062020966b4bc46ull}};
  for (const auto& [seed, digest] : pinned) {
    const FuzzPoint p = generate_point(seed);
    EXPECT_EQ(core::fnv1a64(core::canonical_text(p.config) +
                            core::canonical_text(p.workload)),
              digest)
        << "seed " << seed;
  }
}

TEST(FuzzGenerator, GeneratedPointsAreValidAndBounded) {
  const FuzzLimits limits{4, 6, 8};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const FuzzPoint p = generate_point(seed, limits);
    EXPECT_NO_THROW(p.config.validate()) << "seed " << seed;
    EXPECT_LE(p.config.num_islands, 4u) << "seed " << seed;
    EXPECT_LE(p.workload.dfg.size(), 6u) << "seed " << seed;
    EXPECT_LE(p.workload.invocations, 8u) << "seed " << seed;
    EXPECT_GE(p.workload.invocations, 2u) << "seed " << seed;
  }
}

TEST(FuzzGenerator, CrossCheckPassesOnAHealthyPoint) {
  const std::string failure = cross_check(generate_point(7, {4, 6, 6}));
  EXPECT_TRUE(failure.empty()) << failure;
}

TEST(FuzzGenerator, ReproTextRecordsSeedLimitsAndFailure) {
  const FuzzLimits limits{4, 6, 8};
  const FuzzPoint p = generate_point(3, limits);
  const std::string text = repro_text(p, limits, "example divergence");
  EXPECT_NE(text.find("seed = 3"), std::string::npos);
  EXPECT_NE(text.find("limits.max_islands = 4"), std::string::npos);
  EXPECT_NE(text.find("example divergence"), std::string::npos);
  EXPECT_NE(text.find("[config]"), std::string::npos);
  EXPECT_NE(text.find("[workload]"), std::string::npos);
}

}  // namespace
}  // namespace ara::check
