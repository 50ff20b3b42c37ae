// ara::check — the runtime correctness harness (layer 1 of three: see
// DESIGN.md "Validation & fuzzing"; layers 2/3 are check/fuzz.h and the
// metamorphic test suite).
//
// The InvariantChecker hooks a core::System and machine-checks conservation
// laws while a workload runs:
//  - job conservation: jobs submitted == completed == GAM requests ==
//    interrupts delivered, per run;
//  - task/chain conservation: every DFG task starts exactly once per
//    invocation, and every chain edge is served exactly once — directly
//    SPM->SPM or spilled through shared memory;
//  - event balance: the kernel's events_scheduled == events_processed +
//    pending at every observation point, and the queue drains by run end;
//  - allocation/SPM occupancy: the ABC's slot-activity matrix stays
//    consistent (exclusive ownership, SPM-sharing neighbour exclusion,
//    no leaked or double-allocated slots) — Abc::audit_allocation;
//  - admission window: the GAM never oversubscribes max_jobs_in_flight;
//  - monotonicity: time and cumulative counters never move backwards;
//  - result sanity: utilizations and hit rates in [0, 1], latency
//    percentiles ordered, energy/area non-negative, stats-registry roll-ups
//    agree with component counters.
//
// Checking never perturbs results: live sampling rides the Simulator
// observer hook (not an event), so a checked run is bit-identical to an
// unchecked one. Violations throw CheckError. Enabled process-wide via
// ARA_CHECK / --check (common::CliOptions) or set_enabled(); cheap enough
// for every ctest.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.h"

namespace ara::core {
class System;
struct RunResult;
}  // namespace ara::core
namespace ara::workloads {
struct Workload;
}  // namespace ara::workloads

namespace ara::check {

/// Thrown when a runtime invariant is violated. The message names the
/// broken conservation law and the observed values.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}
};

/// Process-wide enable state: set_enabled() overrides; otherwise ARA_CHECK
/// decides by common::truthy (off when unset, "", "0", "off" or "false").
/// core::System consults this at construction.
bool enabled();
void set_enabled(bool on);
/// Drop any set_enabled() override and fall back to ARA_CHECK.
void clear_enabled_override();

/// RAII enable/restore for tests.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true);
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  int prev_;  // tri-state override snapshot
};

/// Conservation ledger of one completed System::run, expressed as deltas so
/// multi-run Systems (stats accumulate across runs) verify per run.
/// verify_ledger() is a pure function of this struct, which is what makes
/// the checker's negative test possible: corrupt one field of a real ledger
/// and the verifier must throw.
struct RunLedger {
  // Expectations derived from the workload at begin_run.
  std::uint64_t invocations = 0;
  std::uint64_t tasks_expected = 0;       // dfg size x invocations (0 mono)
  std::uint64_t chain_edges_expected = 0; // chain edges x invocations (0 mono)
  // Observed counter deltas over the run.
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t gam_requests = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t tasks_started = 0;
  std::uint64_t chains_direct = 0;
  std::uint64_t chains_spilled = 0;
  /// Newly scheduled this run, plus events already queued when it began.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_pending = 0;  // at end of run (must be 0)
};

/// Verify every conservation law the ledger encodes; throws CheckError on
/// the first violation. Returns the number of invariants evaluated.
std::uint64_t verify_ledger(const RunLedger& ledger);

/// Live + end-of-run invariant checking for one core::System. Owned by the
/// System (constructed when check::enabled()); begin_run()/end_run()
/// bracket each System::run, and check_now() fires from the Simulator
/// observer every kSampleInterval dispatched events.
///
/// Threading: single-owner state, deliberately unannotated. The checker's
/// ledger, baselines and watermarks belong to exactly one System, and a
/// System (plus its Simulator and observer hook) lives on one thread for
/// its whole lifetime — the parallel sweep executor builds one per worker
/// and never shares them. The only process-shared piece of ara::check is
/// the tri-state enable override, which is a std::atomic in check.cc.
class InvariantChecker {
 public:
  /// Dispatches between live samples. Small enough to catch corruption
  /// close to its cause, large enough to stay cheap (<1% on tier-1 runs).
  static constexpr std::uint64_t kSampleInterval = 1024;

  explicit InvariantChecker(core::System& system);
  ~InvariantChecker();
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Snapshot baselines and arm the simulator observer.
  void begin_run(const workloads::Workload& workload);
  /// Disarm, build the run's ledger, verify it, and run the post-run
  /// result/stats checks against `result`.
  void end_run(const core::RunResult& result);
  /// One live structural pass (observer target; also callable directly).
  void check_now();

  /// Ledger of the most recent completed run (valid after end_run).
  const RunLedger& last_ledger() const { return ledger_; }
  /// Total invariants evaluated and live samples taken, cumulative.
  std::uint64_t checks_passed() const { return checks_passed_; }
  std::uint64_t samples() const { return samples_; }

 private:
  void fail(const std::string& what) const;

  core::System& sys_;
  RunLedger ledger_;
  std::uint64_t checks_passed_ = 0;
  std::uint64_t samples_ = 0;
  bool armed_ = false;

  // Baselines captured at begin_run (deltas give per-run conservation).
  struct Baseline {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t gam_requests = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t tasks_started = 0;
    std::uint64_t chains_direct = 0;
    std::uint64_t chains_spilled = 0;
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_dispatched = 0;
    std::uint64_t events_pending = 0;  // queued before the run began
  } base_;

  // Monotonicity watermarks advanced by every live sample.
  struct Watermark {
    Tick now = 0;
    std::uint64_t events_dispatched = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t tasks_started = 0;
    std::uint64_t chains = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t dram_bytes = 0;
  } mark_;
};

}  // namespace ara::check
