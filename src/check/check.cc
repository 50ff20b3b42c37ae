#include "check/check.h"

#include <cstdlib>
#include <string>

#include "common/cli_options.h"
#include "core/run_result.h"
#include "core/system.h"
#include "workloads/workload.h"

namespace ara::check {

namespace {

// Tri-state override: -1 = follow ARA_CHECK, 0/1 = forced. Atomic so that
// parallel sweep workers constructing Systems may read it while a test has
// just set it (writes happen-before the sweep starts, but TSAN still wants
// the access annotated).
std::atomic<int> g_override{-1};

bool env_enabled() {
  const char* s = std::getenv("ARA_CHECK");
  return s != nullptr && common::truthy(s);
}

}  // namespace

bool enabled() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return env_enabled();
}

void set_enabled(bool on) {
  g_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

void clear_enabled_override() {
  g_override.store(-1, std::memory_order_relaxed);
}

ScopedEnable::ScopedEnable(bool on)
    : prev_(g_override.load(std::memory_order_relaxed)) {
  set_enabled(on);
}

ScopedEnable::~ScopedEnable() {
  g_override.store(prev_, std::memory_order_relaxed);
}

// ------------------------------------------------------------- the ledger

namespace {

void ledger_fail(const std::string& law, std::uint64_t got,
                 std::uint64_t want) {
  throw CheckError("invariant violated: " + law + " (got " +
                   std::to_string(got) + ", expected " +
                   std::to_string(want) + ")");
}

}  // namespace

std::uint64_t verify_ledger(const RunLedger& l) {
  std::uint64_t checks = 0;
  auto expect_eq = [&](std::uint64_t got, std::uint64_t want,
                       const char* law) {
    ++checks;
    if (got != want) ledger_fail(law, got, want);
  };

  // Job conservation: every invocation is submitted, completed, requested
  // through the GAM and acknowledged with exactly one interrupt.
  expect_eq(l.jobs_submitted, l.invocations,
            "jobs submitted == invocations");
  expect_eq(l.jobs_completed, l.invocations,
            "jobs completed == invocations");
  expect_eq(l.gam_requests, l.invocations, "GAM requests == invocations");
  expect_eq(l.interrupts, l.invocations,
            "completion interrupts == invocations");
  expect_eq(l.jobs_completed, l.jobs_submitted,
            "jobs completed == jobs submitted");

  // Task conservation: each DFG task starts exactly once per invocation
  // (composable modes; monolithic runs carry tasks_expected == 0).
  expect_eq(l.tasks_started, l.tasks_expected,
            "tasks started == dfg tasks x invocations");

  // Chain conservation: every chain edge is served exactly once — either
  // directly SPM->SPM or spilled through shared memory, never both, never
  // dropped.
  expect_eq(l.chains_direct + l.chains_spilled, l.chain_edges_expected,
            "chains direct + spilled == chain edges x invocations");

  // Event balance: the kernel accepted exactly as many events as it
  // dispatched plus what is still pending, and a completed run drains.
  expect_eq(l.events_dispatched + l.events_pending, l.events_scheduled,
            "events dispatched + pending == scheduled");
  expect_eq(l.events_pending, 0, "event queue drained at end of run");

  return checks;
}

// --------------------------------------------------------- live checking

InvariantChecker::InvariantChecker(core::System& system) : sys_(system) {}

InvariantChecker::~InvariantChecker() {
  if (armed_) sys_.simulator().clear_observer();
}

void InvariantChecker::fail(const std::string& what) const {
  throw CheckError("invariant violated: " + what);
}

void InvariantChecker::begin_run(const workloads::Workload& workload) {
  const bool mono =
      sys_.config().mode == abc::ExecutionMode::kMonolithic;
  ledger_ = RunLedger{};
  ledger_.invocations = workload.invocations;
  ledger_.tasks_expected =
      mono ? 0 : workload.dfg.size() * std::uint64_t{workload.invocations};
  ledger_.chain_edges_expected =
      mono ? 0
           : workload.dfg.chain_edges() * std::uint64_t{workload.invocations};

  base_.jobs_submitted = sys_.composer().jobs_submitted();
  base_.jobs_completed = sys_.composer().jobs_completed();
  base_.gam_requests = sys_.gam().requests();
  base_.interrupts = sys_.gam().interrupts_delivered();
  base_.tasks_started = sys_.composer().tasks_started();
  base_.chains_direct = sys_.composer().chains_direct();
  base_.chains_spilled = sys_.composer().chains_spilled();
  base_.events_scheduled = sys_.simulator().events_scheduled();
  base_.events_dispatched = sys_.simulator().events_processed();
  // Events already queued when the run starts (e.g. a failure injection
  // scheduled before run()) dispatch inside the run: credit them to this
  // run's schedule side or the balance law would double-count them.
  base_.events_pending = sys_.simulator().pending();

  mark_ = Watermark{};
  mark_.now = sys_.simulator().now();
  mark_.events_dispatched = base_.events_dispatched;
  mark_.jobs_completed = base_.jobs_completed;
  mark_.tasks_started = base_.tasks_started;
  mark_.chains = base_.chains_direct + base_.chains_spilled;
  mark_.flit_hops = sys_.mesh().total_flit_hops();
  mark_.dram_bytes = sys_.memory().dram_bytes();

  sys_.simulator().set_observer([this] { check_now(); }, kSampleInterval);
  armed_ = true;
  check_now();
}

void InvariantChecker::check_now() {
  ++samples_;
  sim::Simulator& sim = sys_.simulator();

  // Kernel event balance holds at every point where caller code runs.
  ++checks_passed_;
  if (sim.events_scheduled() != sim.events_processed() + sim.pending())
    fail("events scheduled (" + std::to_string(sim.events_scheduled()) +
         ") != dispatched (" + std::to_string(sim.events_processed()) +
         ") + pending (" + std::to_string(sim.pending()) + ")");

  // Allocation / SPM-occupancy audit (exclusive slot ownership, sharing
  // neighbour exclusion, no leaked or double-allocated slots).
  const std::string audit = sys_.composer().audit_allocation(&checks_passed_);
  if (!audit.empty()) fail(audit);

  // GAM admission window is never oversubscribed.
  ++checks_passed_;
  if (sys_.gam().jobs_in_flight() > sys_.config().max_jobs_in_flight)
    fail("GAM window oversubscribed: " +
         std::to_string(sys_.gam().jobs_in_flight()) + " jobs in flight > " +
         std::to_string(sys_.config().max_jobs_in_flight));

  // Per-run progress bounds: deltas never exceed the run's expectations.
  const std::uint64_t d_jobs =
      sys_.composer().jobs_completed() - base_.jobs_completed;
  const std::uint64_t d_tasks =
      sys_.composer().tasks_started() - base_.tasks_started;
  const std::uint64_t d_chains = sys_.composer().chains_direct() +
                                 sys_.composer().chains_spilled() -
                                 base_.chains_direct - base_.chains_spilled;
  ++checks_passed_;
  if (d_jobs > ledger_.invocations)
    fail("more jobs completed than invocations submitted this run");
  ++checks_passed_;
  if (ledger_.tasks_expected != 0 && d_tasks > ledger_.tasks_expected)
    fail("more tasks started than dfg tasks x invocations");
  ++checks_passed_;
  if (ledger_.chain_edges_expected != 0 &&
      d_chains > ledger_.chain_edges_expected)
    fail("more chain edges served than exist");

  // Monotonicity: simulated time and cumulative counters never regress.
  auto mono = [&](std::uint64_t now_v, std::uint64_t& mark,
                  const char* what) {
    ++checks_passed_;
    if (now_v < mark)
      fail(std::string(what) + " moved backwards (" + std::to_string(now_v) +
           " < " + std::to_string(mark) + ")");
    mark = now_v;
  };
  mono(sim.now(), mark_.now, "simulated time");
  mono(sim.events_processed(), mark_.events_dispatched, "events dispatched");
  mono(sys_.composer().jobs_completed(), mark_.jobs_completed,
       "jobs completed");
  mono(sys_.composer().tasks_started(), mark_.tasks_started, "tasks started");
  mono(sys_.composer().chains_direct() + sys_.composer().chains_spilled(),
       mark_.chains, "chain counters");
  mono(sys_.mesh().total_flit_hops(), mark_.flit_hops, "NoC flit hops");
  mono(sys_.memory().dram_bytes(), mark_.dram_bytes, "DRAM bytes");
}

void InvariantChecker::end_run(const core::RunResult& r) {
  check_now();
  if (armed_) {
    sys_.simulator().clear_observer();
    armed_ = false;
  }

  ledger_.jobs_submitted =
      sys_.composer().jobs_submitted() - base_.jobs_submitted;
  ledger_.jobs_completed =
      sys_.composer().jobs_completed() - base_.jobs_completed;
  ledger_.gam_requests = sys_.gam().requests() - base_.gam_requests;
  ledger_.interrupts =
      sys_.gam().interrupts_delivered() - base_.interrupts;
  ledger_.tasks_started =
      sys_.composer().tasks_started() - base_.tasks_started;
  ledger_.chains_direct =
      sys_.composer().chains_direct() - base_.chains_direct;
  ledger_.chains_spilled =
      sys_.composer().chains_spilled() - base_.chains_spilled;
  ledger_.events_scheduled = sys_.simulator().events_scheduled() -
                             base_.events_scheduled + base_.events_pending;
  ledger_.events_dispatched =
      sys_.simulator().events_processed() - base_.events_dispatched;
  ledger_.events_pending = sys_.simulator().pending();

  checks_passed_ += verify_ledger(ledger_);

  // --- post-run result sanity ---
  constexpr double kEps = 1e-9;
  auto expect = [&](bool ok, const std::string& what) {
    ++checks_passed_;
    if (!ok) fail(what);
  };
  expect(r.jobs == ledger_.invocations,
         "RunResult.jobs != invocations");
  expect(r.makespan > 0, "zero makespan for a non-empty run");
  expect(r.avg_abb_utilization >= 0.0 &&
             r.avg_abb_utilization <= 1.0 + kEps,
         "average ABB utilization outside [0, 1]");
  expect(r.peak_abb_utilization >= 0.0 &&
             r.peak_abb_utilization <= 1.0 + kEps,
         "peak ABB utilization outside [0, 1]");
  expect(r.noc_peak_link_utilization >= 0.0 &&
             r.noc_peak_link_utilization <= 1.0 + kEps,
         "NoC peak link utilization outside [0, 1] over the makespan");
  expect(r.l2_hit_rate >= 0.0 && r.l2_hit_rate <= 1.0 + kEps,
         "L2 hit rate outside [0, 1]");
  expect(r.job_latency_mean >= 0.0, "negative mean job latency");
  expect(r.job_latency_p50 <= r.job_latency_p95,
         "job latency p50 > p95 (histogram corrupted)");
  expect(r.job_latency_max <= r.makespan,
         "a job's latency exceeds the whole run's makespan");
  expect(r.energy.total() >= 0.0 && r.energy.abb_j >= 0.0 &&
             r.energy.dram_j >= 0.0 && r.energy.leakage_j >= 0.0,
         "negative energy component");
  expect(r.area.total() > 0.0, "non-positive chip area");
  expect(r.chains_direct == sys_.composer().chains_direct() &&
             r.chains_spilled == sys_.composer().chains_spilled(),
         "RunResult chain counters diverged from the composer's");

  // Stats-registry roll-ups must agree with the component counters they
  // were copied from (snapshot_stats ran just before end_run).
  auto expect_stat = [&](const char* name, std::uint64_t want) {
    ++checks_passed_;
    const sim::Counter* c = sys_.stats().find_counter(name);
    if (c == nullptr)
      fail(std::string("stats counter missing after snapshot: ") + name);
    if (c->value() != want)
      fail(std::string("stats counter ") + name + " (" +
           std::to_string(c->value()) + ") != component counter (" +
           std::to_string(want) + ")");
  };
  expect_stat("sim.events", sys_.simulator().events_processed());
  expect_stat("abc.jobs_completed", sys_.composer().jobs_completed());
  expect_stat("abc.tasks_started", sys_.composer().tasks_started());
  expect_stat("gam.interrupts", sys_.gam().interrupts_delivered());
  expect_stat("noc.flit_hops", sys_.mesh().total_flit_hops());
}

}  // namespace ara::check
