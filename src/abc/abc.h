// ABC: the Accelerator Block Composer (paper Sec. 2) — the hardware engine
// inside the GAM that, given a kernel's ABB flow graph, dynamically
// allocates free ABBs across islands, composes them into a virtual
// accelerator, orchestrates DMA and chaining traffic, load-balances across
// islands, and frees blocks as the dataflow drains.
//
// Composition model: the ABC "uses data flow graphs at runtime to
// dynamically allocate and compose available ABBs in order to virtualize
// monolithic accelerators" (Sec. 2) — a job's entire virtual accelerator is
// composed atomically at admission. Placement is chaining-aware and
// load-balanced:
//  - a task with chained producers first tries the island of its first
//    producer's slot (chaining stays on the island network);
//  - otherwise (or when full) the island with the most free ABBs of the
//    required kind wins (load balancing), ties to the lowest island id.
// If the whole graph cannot be placed, the job waits in FIFO order; slots
// free as each task's data drains, and each release retries admission.
//
// Fallback (and deadlock backstop): a job whose per-kind ABB demand exceeds
// the chip's total inventory can never be composed atomically; it runs in
// per-task mode, where a ready task that cannot be placed makes its
// producers spill their chain data to shared memory and release their ABBs,
// so every block is eventually released.
//
// ARC mode: the same runtime can drive islands as ARC-style monolithic
// accelerators (one fused-pipeline accelerator per island, paper Sec. 2)
// for the generational comparison.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/dfg.h"
#include "island/island.h"
#include "mem/memory_system.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ara::abc {

/// How the runtime uses the islands.
enum class ExecutionMode : std::uint8_t {
  kComposable = 0,  // CHARM/CAMEL: per-ABB composition
  kMonolithic,      // ARC: one fused accelerator per island
};

struct AbcConfig {
  ExecutionMode mode = ExecutionMode::kComposable;
  /// Ablation: disable atomic virtual-accelerator composition and place
  /// every task individually when it becomes ready (spilling chains when
  /// consumers cannot be placed).
  bool force_per_task = false;
  /// Monolithic mode: number of dedicated accelerator instances on the
  /// chip (0 = one per island). ARC's dedicated accelerators are area
  /// constrained and shared across the whole domain's kernels, so a
  /// fair generational comparison derives this from the fused
  /// accelerator's area (see `ara_paper sec2`).
  std::uint32_t mono_instances = 0;
};

/// Completion callback: (job id, completion tick).
using JobDoneFn = std::function<void(JobId, Tick)>;

class Abc {
 public:
  Abc(sim::Simulator& sim, mem::MemorySystem& mem,
      std::vector<island::Island*> islands, AbcConfig config);

  /// Launch one kernel invocation. `in_base`/`out_base` are the buffers the
  /// invocation streams from/to. Returns the job id.
  JobId submit_job(const dataflow::Dfg* dfg, Addr in_base, Addr out_base,
                   Tick start_at, JobDoneFn on_done);

  std::uint64_t jobs_completed() const { return jobs_completed_; }
  std::uint64_t jobs_submitted() const { return next_job_; }

  /// Chain-edge outcomes: transferred directly SPM->SPM vs spilled through
  /// shared memory because the consumer could not be placed in time.
  std::uint64_t chains_direct() const { return chains_direct_; }
  std::uint64_t chains_spilled() const { return chains_spilled_; }

  /// Tasks that had to wait in the pending queue for a free ABB.
  std::uint64_t tasks_queued() const { return tasks_queued_; }
  std::uint64_t tasks_started() const { return tasks_started_; }

  /// Take an island's blocks out of the allocation pool (failure
  /// injection, thermal/dark-silicon capping). In-flight tasks finish;
  /// future compositions avoid the island. Throws ConfigError only for an
  /// island id out of range: there is no inventory check, so a job that
  /// needs a kind with no online block never finishes, and System::run
  /// then throws its "drained with incomplete jobs" ConfigError.
  void set_island_offline(IslandId isl, bool offline);
  bool island_offline(IslandId isl) const { return offline_[isl]; }

  /// Monolithic-mode accounting (zero in composable mode).
  double mono_dynamic_energy_j() const;
  Tick mono_busy_cycles(std::size_t instance) const {
    return mono_busy_[instance];
  }
  std::size_t mono_instance_count() const { return mono_busy_.size(); }

  const AbcConfig& config() const { return config_; }

  /// Attach a trace collector (optional); task compute spans and spill
  /// events are recorded into it.
  void set_trace(sim::TraceCollector* trace) { trace_ = trace; }

  /// Install live instrumentation into `reg`: an "abc.task_latency"
  /// histogram (inputs-arriving through compute-done per task).
  void set_stats(sim::StatRegistry& reg);

  /// Roll job/chain/task totals into `reg` under "abc.*".
  void snapshot_stats(sim::StatRegistry& reg) const;

  /// Tasks and jobs currently waiting for resources (counter-track sample).
  std::size_t pending_depth() const {
    return pending_.size() + admit_queue_.size();
  }

  /// Internal-consistency audit of the allocation state (ara::check calls
  /// this between events). Verifies that the slot-activity matrix matches
  /// the islands' shapes, that SPM-sharing neighbour exclusion holds, that
  /// every active slot is claimed by a live owner (a running task, a
  /// completed task awaiting its scheduled release, or an atomic
  /// composition reservation) with at most one running task per slot, and
  /// that queued work references valid jobs/tasks. Returns a description of
  /// the first violated invariant, or an empty string when consistent.
  /// `checks` (optional) is incremented once per invariant evaluated.
  std::string audit_allocation(std::uint64_t* checks = nullptr) const;

 private:
  struct TaskState {
    enum class Phase : std::uint8_t { kWaiting, kPending, kRunning, kDone };
    Phase phase = Phase::kWaiting;
    std::uint32_t preds_left = 0;
    IslandId island = kInvalidId;
    AbbId slot = kInvalidId;
    Tick done_tick = 0;
    /// Earliest tick the slot may be released once consumers are served
    /// (covers an in-flight output store).
    Tick release_floor = 0;
    /// Consumers that have not yet pulled their chain data.
    std::uint32_t consumers_unchained = 0;
    bool spilled = false;
    Addr spill_addr = 0;
  };

  struct Slot {
    IslandId island = kInvalidId;
    AbbId abb = kInvalidId;
  };

  struct Job {
    JobId id = 0;
    const dataflow::Dfg* dfg = nullptr;
    Addr in_base = 0, out_base = 0;
    std::vector<Addr> node_in_addr;
    std::vector<Addr> node_out_addr;
    std::vector<TaskState> tasks;
    std::size_t tasks_done = 0;
    Tick final_tick = 0;  // max over compute/store/spill completions
    bool finished = false;
    /// Atomically-composed virtual accelerator (normal path) vs per-task
    /// fallback for graphs larger than the chip.
    bool atomic = true;
    std::vector<Slot> assigned;
    JobDoneFn on_done;
  };

  struct PendingEntry {
    JobId job;
    TaskId task;
  };

  // --- placement ---
  /// True when the DFG's per-kind demand fits the chip's total inventory
  /// (atomic composition possible at all). Accounts for the SPM-sharing
  /// allocation constraint by dry-running composition on an empty chip.
  bool fits_inventory(const dataflow::Dfg& dfg) const;
  /// Dry-run of assign_all against an empty chip (no persistent state).
  bool composable_on_empty_chip(const dataflow::Dfg& dfg) const;
  /// Compose the whole job: assign a slot to every task (chaining-aware),
  /// marking slots active. Returns false (and rolls back) if impossible now.
  bool assign_all(Job& j);
  /// Admit queued atomic jobs in FIFO order while composition succeeds.
  void try_start_jobs();
  bool find_slot(const dataflow::DfgNode& node, const Job& job,
                 Slot& out) const;
  bool slot_matches(IslandId isl, AbbId a,
                    const dataflow::DfgNode& node) const;
  bool slot_allocatable(IslandId isl, AbbId a) const;
  /// First matching allocatable slot on `isl`, scanning round-robin from a
  /// per-island cursor (levels wear/utilization across identical blocks).
  bool pick_slot_in_island(IslandId isl, const dataflow::DfgNode& node,
                           Slot& out) const;
  std::uint32_t free_matching_count(IslandId isl,
                                    const dataflow::DfgNode& node) const;
  void release(IslandId isl, AbbId a, Tick at);

  // --- task lifecycle ---
  void on_task_ready(JobId job, TaskId task);
  void start_task(JobId job, TaskId task, Slot slot);
  void on_task_complete(JobId job, TaskId task);
  void spill_producer(Job& j, TaskId producer);
  void drain_pending();
  void maybe_finish_job(Job& j);

  // --- monolithic (ARC) path ---
  void run_monolithic(JobId job, Tick start_at);

  sim::Simulator& sim_;
  mem::MemorySystem& mem_;
  std::vector<island::Island*> islands_;
  AbcConfig config_;

  /// Per island: slot activity flags (allocation state).
  std::vector<std::vector<bool>> active_;
  /// Per island: removed from the allocation pool.
  std::vector<bool> offline_;
  /// Per island: round-robin scan cursor for slot picking.
  mutable std::vector<AbbId> cursor_;
  /// Monolithic mode: per-island accelerator free tick / busy cycles.
  std::vector<Tick> mono_free_at_;
  std::vector<Tick> mono_busy_;
  double mono_energy_pj_ = 0.0;

  std::vector<std::unique_ptr<Job>> jobs_;
  sim::TraceCollector* trace_ = nullptr;
  sim::Histogram* task_latency_h_ = nullptr;
  std::deque<PendingEntry> pending_;   // per-task fallback queue
  std::deque<JobId> admit_queue_;      // atomic jobs awaiting composition

  JobId next_job_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t chains_direct_ = 0;
  std::uint64_t chains_spilled_ = 0;
  std::uint64_t tasks_queued_ = 0;
  std::uint64_t tasks_started_ = 0;
};

}  // namespace ara::abc
