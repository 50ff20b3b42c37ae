#include "abc/abc.h"

#include <algorithm>
#include <cmath>

#include "common/config_error.h"
#include "common/units.h"

namespace ara::abc {

using dataflow::DfgNode;

Abc::Abc(sim::Simulator& sim, mem::MemorySystem& mem,
         std::vector<island::Island*> islands, AbcConfig config)
    : sim_(sim), mem_(mem), islands_(std::move(islands)), config_(config) {
  config_check(!islands_.empty(), "ABC needs at least one island");
  active_.resize(islands_.size());
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    active_[i].assign(islands_[i]->num_abbs(), false);
  }
  cursor_.assign(islands_.size(), 0);
  offline_.assign(islands_.size(), false);
  const std::size_t instances = config_.mono_instances == 0
                                    ? islands_.size()
                                    : config_.mono_instances;
  mono_free_at_.assign(instances, 0);
  mono_busy_.assign(instances, 0);
}

JobId Abc::submit_job(const dataflow::Dfg* dfg, Addr in_base, Addr out_base,
                      Tick start_at, JobDoneFn on_done) {
  config_check(dfg != nullptr && dfg->finalized() && !dfg->empty(),
               "ABC needs a finalized, non-empty DFG");
  const JobId id = next_job_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->dfg = dfg;
  job->in_base = in_base;
  job->out_base = out_base;
  job->on_done = std::move(on_done);
  job->tasks.resize(dfg->size());
  job->node_in_addr.resize(dfg->size());
  job->node_out_addr.resize(dfg->size());
  Addr in_off = 0, out_off = 0;
  for (TaskId t = 0; t < dfg->size(); ++t) {
    const DfgNode& n = dfg->node(t);
    job->node_in_addr[t] = in_base + in_off;
    job->node_out_addr[t] = out_base + out_off;
    in_off += n.mem_in_bytes;
    out_off += n.mem_out_bytes;
    job->tasks[t].preds_left = static_cast<std::uint32_t>(n.preds.size());
    job->tasks[t].consumers_unchained =
        static_cast<std::uint32_t>(n.succs.size());
  }
  jobs_.push_back(std::move(job));

  if (config_.mode == ExecutionMode::kMonolithic) {
    sim_.schedule_at(
        std::max(start_at, sim_.now()),
        [this, id, start_at] { run_monolithic(id, start_at); },
        sim::EventKind::kJobAdmit);
    return id;
  }

  jobs_.back()->atomic = !config_.force_per_task && fits_inventory(*dfg);
  sim_.schedule_at(
      std::max(start_at, sim_.now()),
      [this, id] {
        Job& j = *jobs_[id];
        if (j.atomic) {
          admit_queue_.push_back(id);
          try_start_jobs();
          if (!admit_queue_.empty() && admit_queue_.back() == id) {
            ++tasks_queued_;  // composition had to wait for resources
          }
          return;
        }
        for (TaskId t = 0; t < j.dfg->size(); ++t) {
          if (j.tasks[t].preds_left == 0) on_task_ready(id, t);
        }
      },
      sim::EventKind::kJobAdmit);
  return id;
}

bool Abc::fits_inventory(const dataflow::Dfg& dfg) const {
  // Demand per (kind, fabric) vs the chip's total block inventory.
  std::array<std::uint32_t, abb::kNumAbbKinds> demand{};
  std::uint32_t fabric_demand = 0;
  for (const auto& n : dfg.nodes()) {
    if (n.needs_fabric) {
      ++fabric_demand;
    } else {
      ++demand[static_cast<std::size_t>(n.kind)];
    }
  }
  std::array<std::uint32_t, abb::kNumAbbKinds> have{};
  std::uint32_t fabric_have = 0;
  for (IslandId i = 0; i < islands_.size(); ++i) {
    if (offline_[i]) continue;
    const auto* isl = islands_[i];
    for (AbbId a = 0; a < isl->num_abbs(); ++a) {
      const auto& e = isl->engine(a);
      if (e.is_fabric()) {
        ++fabric_have;
      } else {
        ++have[static_cast<std::size_t>(e.kind())];
      }
    }
  }
  for (std::size_t k = 0; k < abb::kNumAbbKinds; ++k) {
    if (demand[k] > have[k]) return false;
  }
  if (fabric_demand > fabric_have) return false;
  // Raw counts fit; with SPM sharing the neighbour constraint can still
  // make composition impossible (adjacent same-kind blocks exclude each
  // other), so dry-run the allocator on an empty chip.
  bool sharing_anywhere = false;
  for (const auto* isl : islands_) {
    sharing_anywhere |= isl->config().spm_sharing;
  }
  if (sharing_anywhere) {
    return composable_on_empty_chip(dfg);
  }
  return true;
}

void Abc::set_island_offline(IslandId isl, bool offline) {
  config_check(isl < islands_.size(), "island id out of range");
  offline_[isl] = offline;
  if (!offline) {
    sim_.schedule_at(
        sim_.now(),
        [this] {
          drain_pending();
          try_start_jobs();
        },
        sim::EventKind::kSlotRelease);
  }
}

bool Abc::composable_on_empty_chip(const dataflow::Dfg& dfg) const {
  // Scratch allocation state mirroring slot_allocatable()'s rules.
  std::vector<std::vector<bool>> scratch(islands_.size());
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    scratch[i].assign(islands_[i]->num_abbs(), false);
  }
  auto allocatable = [&](IslandId isl, AbbId a) {
    if (offline_[isl] || scratch[isl][a]) return false;
    if (islands_[isl]->config().spm_sharing) {
      if (a > 0 && scratch[isl][a - 1]) return false;
      if (a + 1 < scratch[isl].size() && scratch[isl][a + 1]) return false;
    }
    return true;
  };
  for (TaskId t : dfg.topo_order()) {
    const auto& node = dfg.node(t);
    bool placed = false;
    for (IslandId isl = 0; isl < islands_.size() && !placed; ++isl) {
      for (AbbId a = 0; a < islands_[isl]->num_abbs(); ++a) {
        if (slot_matches(isl, a, node) && allocatable(isl, a)) {
          scratch[isl][a] = true;
          placed = true;
          break;
        }
      }
    }
    if (!placed) return false;
  }
  return true;
}

bool Abc::assign_all(Job& j) {
  j.assigned.assign(j.dfg->size(), Slot{});
  std::vector<Slot> taken;
  taken.reserve(j.dfg->size());

  auto rollback = [&] {
    for (const Slot& s : taken) active_[s.island][s.abb] = false;
    j.assigned.clear();
  };

  for (TaskId t : j.dfg->topo_order()) {
    const auto& node = j.dfg->node(t);
    Slot slot{};
    // Chaining locality: co-locate with the first producer's slot.
    bool placed = false;
    for (TaskId p : node.preds) {
      const Slot& ps = j.assigned[p];
      if (ps.island == kInvalidId) continue;
      placed = pick_slot_in_island(ps.island, node, slot);
      break;  // only the first placed producer drives locality
    }
    if (!placed && !find_slot(node, j, slot)) {
      rollback();
      return false;
    }
    active_[slot.island][slot.abb] = true;
    taken.push_back(slot);
    j.assigned[t] = slot;
  }
  return true;
}

void Abc::try_start_jobs() {
  while (!admit_queue_.empty()) {
    const JobId id = admit_queue_.front();
    Job& j = *jobs_[id];
    if (!assign_all(j)) {
      if (composable_on_empty_chip(*j.dfg)) {
        return;  // FIFO: head-of-line job waits for releases
      }
      // The chip shrank under this job (island offlined): demote to the
      // per-task fallback so it still completes.
      admit_queue_.pop_front();
      j.atomic = false;
      for (TaskId t = 0; t < j.dfg->size(); ++t) {
        if (j.tasks[t].preds_left == 0 &&
            j.tasks[t].phase == TaskState::Phase::kWaiting) {
          on_task_ready(id, t);
        }
      }
      continue;
    }
    admit_queue_.pop_front();
    for (TaskId t = 0; t < j.dfg->size(); ++t) {
      if (j.tasks[t].preds_left == 0) start_task(id, t, j.assigned[t]);
    }
  }
}

// ------------------------------------------------------------- placement

bool Abc::slot_matches(IslandId isl, AbbId a, const DfgNode& node) const {
  const auto& e = islands_[isl]->engine(a);
  if (node.needs_fabric) return e.is_fabric();
  return !e.is_fabric() && e.kind() == node.kind;
}

bool Abc::slot_allocatable(IslandId isl, AbbId a) const {
  if (offline_[isl] || active_[isl][a]) return false;
  if (islands_[isl]->config().spm_sharing) {
    // Neighbour SPM sharing: an active neighbour owns part of this slot's
    // banks (Sec. 5.1: allocation "renders other near-by ABBs unusable").
    if (a > 0 && active_[isl][a - 1]) return false;
    if (a + 1 < active_[isl].size() && active_[isl][a + 1]) return false;
  }
  return true;
}

std::uint32_t Abc::free_matching_count(IslandId isl,
                                       const DfgNode& node) const {
  std::uint32_t count = 0;
  for (AbbId a = 0; a < islands_[isl]->num_abbs(); ++a) {
    if (slot_matches(isl, a, node) && slot_allocatable(isl, a)) ++count;
  }
  return count;
}

bool Abc::pick_slot_in_island(IslandId isl, const DfgNode& node,
                              Slot& out) const {
  const AbbId n = islands_[isl]->num_abbs();
  for (AbbId i = 0; i < n; ++i) {
    const AbbId a = (cursor_[isl] + i) % n;
    if (slot_matches(isl, a, node) && slot_allocatable(isl, a)) {
      out = Slot{isl, a};
      cursor_[isl] = (a + 1) % n;
      return true;
    }
  }
  return false;
}

bool Abc::find_slot(const DfgNode& node, const Job& job, Slot& out) const {
  auto pick_in_island = [&](IslandId isl) -> bool {
    return pick_slot_in_island(isl, node, out);
  };

  // Chaining locality: prefer the island of the first unspilled producer.
  for (TaskId p : node.preds) {
    const TaskState& ps = job.tasks[p];
    if (!ps.spilled && ps.island != kInvalidId) {
      if (pick_in_island(ps.island)) return true;
      break;  // preferred island full; fall through to load balancing
    }
  }

  // Load balancing: island with the most free matching ABBs.
  IslandId best = kInvalidId;
  std::uint32_t best_count = 0;
  for (IslandId isl = 0; isl < islands_.size(); ++isl) {
    const std::uint32_t c = free_matching_count(isl, node);
    if (c > best_count) {
      best = isl;
      best_count = c;
    }
  }
  if (best == kInvalidId) return false;
  return pick_in_island(best);
}

void Abc::release(IslandId isl, AbbId a, Tick at) {
  sim_.schedule_at(
      std::max(at, sim_.now()),
      [this, isl, a] {
        active_[isl][a] = false;
        drain_pending();
        try_start_jobs();
      },
      sim::EventKind::kSlotRelease);
}

// --------------------------------------------------------- task lifecycle

void Abc::on_task_ready(JobId job, TaskId task) {
  Job& j = *jobs_[job];
  if (j.atomic) {
    // Slot reserved at composition time.
    start_task(job, task, j.assigned[task]);
    return;
  }
  Slot slot{};
  if (find_slot(j.dfg->node(task), j, slot)) {
    start_task(job, task, slot);
    return;
  }
  // No resources: queue the consumer and let its producers spill so their
  // ABBs (and SPM contents) are not pinned indefinitely.
  j.tasks[task].phase = TaskState::Phase::kPending;
  pending_.push_back({job, task});
  ++tasks_queued_;
  for (TaskId p : j.dfg->node(task).preds) spill_producer(j, p);
}

void Abc::spill_producer(Job& j, TaskId producer) {
  TaskState& ps = j.tasks[producer];
  if (ps.spilled || ps.consumers_unchained == 0) return;
  ps.spilled = true;
  if (trace_ != nullptr) {
    trace_->record_instant("spill j" + std::to_string(j.id), ps.island,
                           ps.slot, sim_.now(), "spill");
  }
  chains_spilled_ += ps.consumers_unchained;
  ps.consumers_unchained = 0;

  // Spill size: consumers of this producer receive chain_in_bytes each from
  // it; the stored footprint is one copy.
  Bytes bytes = 0;
  for (TaskId s : j.dfg->node(producer).succs) {
    bytes = std::max(bytes, j.dfg->node(s).chain_in_bytes);
  }
  if (bytes == 0) bytes = kBlockBytes;
  ps.spill_addr = mem_.allocate(bytes);
  island::Island& isl = *islands_[ps.island];
  const Tick done = isl.dma_store(std::max(sim_.now(), ps.done_tick), ps.slot,
                                  ps.spill_addr, bytes);
  j.final_tick = std::max(j.final_tick, done);
  release(ps.island, ps.slot, std::max(done, ps.release_floor));
}

void Abc::start_task(JobId job, TaskId task, Slot slot) {
  Job& j = *jobs_[job];
  const DfgNode& node = j.dfg->node(task);
  TaskState& ts = j.tasks[task];
  ts.phase = TaskState::Phase::kRunning;
  ts.island = slot.island;
  ts.slot = slot.abb;
  active_[slot.island][slot.abb] = true;
  ++tasks_started_;

  island::Island& isl = *islands_[slot.island];
  const Tick t0 = sim_.now();
  Tick inputs_done = t0;
  Bytes bytes_in = node.mem_in_bytes;

  for (TaskId p : node.preds) {
    TaskState& ps = j.tasks[p];
    bytes_in += node.chain_in_bytes;
    Tick t;
    if (ps.spilled) {
      t = isl.dma_load(t0, ps.spill_addr, node.chain_in_bytes, slot.abb);
    } else {
      t = island::Island::chain(std::max(t0, ps.done_tick),
                                *islands_[ps.island], ps.slot, isl, slot.abb,
                                node.chain_in_bytes);
      ++chains_direct_;
      if (ps.consumers_unchained > 0 && --ps.consumers_unchained == 0 &&
          ps.phase == TaskState::Phase::kDone) {
        release(ps.island, ps.slot, std::max(t, ps.release_floor));
      }
    }
    inputs_done = std::max(inputs_done, t);
  }

  if (node.mem_in_bytes > 0) {
    inputs_done = std::max(
        inputs_done,
        isl.dma_load(t0, j.node_in_addr[task], node.mem_in_bytes, slot.abb));
  }

  // Streaming overlap: compute starts once the first double-buffer's worth
  // of input has arrived, and cannot finish before the last input does.
  auto& engine = isl.engine(slot.abb);
  Tick compute_start = inputs_done;
  if (bytes_in > 0 && inputs_done > t0) {
    const double frac = std::min(
        1.0, static_cast<double>(isl.spm(slot.abb).capacity()) / 2.0 /
                 static_cast<double>(bytes_in));
    compute_start =
        t0 + static_cast<Tick>(static_cast<double>(inputs_done - t0) * frac);
  }
  compute_start = std::max(compute_start, engine.busy_until());
  const Tick raw_end = engine.execute(compute_start, node.elements);
  ts.done_tick = std::max(raw_end, inputs_done);
  j.final_tick = std::max(j.final_tick, ts.done_tick);

  if (trace_ != nullptr) {
    trace_->record_span("j" + std::to_string(job) + ".t" +
                            std::to_string(task) + ":" +
                            abb::kind_name(node.kind),
                        slot.island, slot.abb, t0, ts.done_tick, "task");
  }
  if (task_latency_h_ != nullptr) task_latency_h_->record(ts.done_tick - t0);

  sim_.schedule_at(
      ts.done_tick, [this, job, task] { on_task_complete(job, task); },
      sim::EventKind::kTaskComplete);
}

void Abc::on_task_complete(JobId job, TaskId task) {
  Job& j = *jobs_[job];
  const DfgNode& node = j.dfg->node(task);
  TaskState& ts = j.tasks[task];
  ts.phase = TaskState::Phase::kDone;
  ++j.tasks_done;

  Tick store_done = ts.done_tick;
  if (node.mem_out_bytes > 0) {
    store_done = islands_[ts.island]->dma_store(
        ts.done_tick, ts.slot, j.node_out_addr[task], node.mem_out_bytes);
    j.final_tick = std::max(j.final_tick, store_done);
  }
  ts.release_floor = store_done;

  if (ts.consumers_unchained == 0) {
    // No chained consumers left (leaf task, or everything already pulled /
    // spilled): slot frees once the store drains.
    release(ts.island, ts.slot, store_done);
  }

  for (TaskId s : node.succs) {
    if (--j.tasks[s].preds_left == 0) on_task_ready(job, s);
  }
  maybe_finish_job(j);
}

void Abc::drain_pending() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      Job& j = *jobs_[it->job];
      Slot slot{};
      if (find_slot(j.dfg->node(it->task), j, slot)) {
        const JobId job = it->job;
        const TaskId task = it->task;
        pending_.erase(it);
        start_task(job, task, slot);
        progress = true;
        break;
      }
    }
  }
}

void Abc::maybe_finish_job(Job& j) {
  if (j.finished || j.tasks_done != j.dfg->size()) return;
  j.finished = true;
  const JobId id = j.id;
  sim_.schedule_at(
      std::max(j.final_tick, sim_.now()),
      [this, id] {
        Job& job = *jobs_[id];
        ++jobs_completed_;
        if (job.on_done) job.on_done(id, sim_.now());
      },
      sim::EventKind::kJobFinish);
}

// ------------------------------------------------------------ monolithic

void Abc::run_monolithic(JobId job, Tick start_at) {
  Job& j = *jobs_[job];
  const auto fp = j.dfg->fused_profile();

  // Earliest-free accelerator instance wins (the GAM's hardware
  // arbitration). Instances map round-robin onto islands, sharing each
  // island's DMA engine and NoC interface.
  std::size_t best = 0;
  for (std::size_t i = 1; i < mono_free_at_.size(); ++i) {
    if (mono_free_at_[i] < mono_free_at_[best]) best = i;
  }
  island::Island& isl = *islands_[best % islands_.size()];
  const Tick t0 = std::max({sim_.now(), start_at, mono_free_at_[best]});

  const Tick in_done = isl.dma_load(t0, j.in_base, fp.mem_in_bytes, 0);
  Tick compute_start = in_done;
  if (fp.mem_in_bytes > 0 && in_done > t0) {
    const double frac =
        std::min(1.0, static_cast<double>(isl.spm(0).capacity()) / 2.0 /
                          static_cast<double>(fp.mem_in_bytes));
    compute_start =
        t0 + static_cast<Tick>(static_cast<double>(in_done - t0) * frac);
  }
  const Tick compute_end =
      std::max(compute_start + fp.pipeline_latency +
                   static_cast<Tick>(std::ceil(
                       static_cast<double>(fp.elements) * fp.bottleneck_ii)),
               in_done);
  const Tick store_done =
      isl.dma_store(compute_end, 0, j.out_base, fp.mem_out_bytes);

  mono_busy_[best] += compute_end - t0;
  mono_free_at_[best] = compute_end;
  mono_energy_pj_ += fp.energy_pj_per_invocation;
  j.final_tick = std::max(store_done, compute_end);
  j.tasks_done = j.dfg->size();
  maybe_finish_job(j);
}

double Abc::mono_dynamic_energy_j() const { return pj_to_j(mono_energy_pj_); }

// ------------------------------------------------------------------ audit

std::string Abc::audit_allocation(std::uint64_t* checks) const {
  std::uint64_t local = 0;
  auto tick = [&] { ++local; };
  auto done = [&](std::string msg) {
    if (checks != nullptr) *checks += local;
    return msg;
  };

  tick();
  if (active_.size() != islands_.size() || offline_.size() != islands_.size())
    return done("allocation matrix shape diverged from island count");
  for (IslandId i = 0; i < islands_.size(); ++i) {
    tick();
    if (active_[i].size() != islands_[i]->num_abbs())
      return done("island " + std::to_string(i) +
                  ": activity row does not match its ABB count");
    if (islands_[i]->config().spm_sharing) {
      for (AbbId a = 0; a + 1 < active_[i].size(); ++a) {
        tick();
        if (active_[i][a] && active_[i][a + 1])
          return done("island " + std::to_string(i) + ": active neighbours " +
                      std::to_string(a) + "/" + std::to_string(a + 1) +
                      " violate SPM-sharing exclusion");
      }
    }
  }

  // Ownership: count the live claimants of every slot. A claimant is a
  // running task, a completed task whose release event has not fired yet,
  // or an atomic job's composition reservation for a not-yet-started task.
  std::vector<std::vector<std::uint32_t>> claims(islands_.size());
  std::vector<std::vector<std::uint32_t>> running(islands_.size());
  for (IslandId i = 0; i < islands_.size(); ++i) {
    claims[i].assign(active_[i].size(), 0);
    running[i].assign(active_[i].size(), 0);
  }
  auto slot_ok = [&](IslandId i, AbbId a) {
    return i < islands_.size() && a < active_[i].size();
  };
  for (const auto& job : jobs_) {
    const Job& j = *job;
    for (TaskId t = 0; t < j.tasks.size(); ++t) {
      const TaskState& ts = j.tasks[t];
      tick();
      if (ts.phase == TaskState::Phase::kRunning ||
          ts.phase == TaskState::Phase::kDone) {
        if (!slot_ok(ts.island, ts.slot))
          return done("job " + std::to_string(j.id) + " task " +
                      std::to_string(t) + ": slot id out of range");
        ++claims[ts.island][ts.slot];
        if (ts.phase == TaskState::Phase::kRunning) {
          ++running[ts.island][ts.slot];
          tick();
          if (!active_[ts.island][ts.slot])
            return done("job " + std::to_string(j.id) + " task " +
                        std::to_string(t) +
                        ": running on an inactive slot");
        }
      } else if (j.atomic && !j.assigned.empty()) {
        const Slot& s = j.assigned[t];
        if (slot_ok(s.island, s.abb)) ++claims[s.island][s.abb];
      }
    }
  }
  for (IslandId i = 0; i < islands_.size(); ++i) {
    for (AbbId a = 0; a < active_[i].size(); ++a) {
      tick();
      if (active_[i][a] && claims[i][a] == 0)
        return done("island " + std::to_string(i) + " slot " +
                    std::to_string(a) + ": active but unclaimed (leak)");
      tick();
      if (running[i][a] > 1)
        return done("island " + std::to_string(i) + " slot " +
                    std::to_string(a) + ": " +
                    std::to_string(running[i][a]) +
                    " tasks running concurrently (double allocation)");
    }
  }

  for (const PendingEntry& p : pending_) {
    tick();
    if (p.job >= jobs_.size() || p.task >= jobs_[p.job]->tasks.size() ||
        jobs_[p.job]->tasks[p.task].phase != TaskState::Phase::kPending)
      return done("pending queue entry references a non-pending task");
  }
  for (const JobId id : admit_queue_) {
    tick();
    if (id >= jobs_.size() || !jobs_[id]->atomic || jobs_[id]->finished)
      return done("admit queue holds a non-atomic or finished job");
  }

  tick();
  if (jobs_completed_ > next_job_)
    return done("more jobs completed than were ever submitted");
  if (checks != nullptr) *checks += local;
  return {};
}

// ---------------------------------------------------------- observability

void Abc::set_stats(sim::StatRegistry& reg) {
  task_latency_h_ = &reg.histogram("abc.task_latency",
                                   /*bucket_width=*/256, /*buckets=*/128);
}

void Abc::snapshot_stats(sim::StatRegistry& reg) const {
  reg.set_counter("abc.jobs_submitted", next_job_);
  reg.set_counter("abc.jobs_completed", jobs_completed_);
  reg.set_counter("abc.chains_direct", chains_direct_);
  reg.set_counter("abc.chains_spilled", chains_spilled_);
  reg.set_counter("abc.tasks_queued", tasks_queued_);
  reg.set_counter("abc.tasks_started", tasks_started_);
}

}  // namespace ara::abc
