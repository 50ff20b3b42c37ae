#include "core/system.h"

#include <algorithm>

#include "check/check.h"
#include "common/config_error.h"
#include "power/energy_accounting.h"

namespace ara::core {

System::~System() = default;

System::System(const ArchConfig& config) : config_(config) {
  config_.validate();
  // Every link's floor is sim_.now(); sim_ is declared before the
  // components, so it outlives every link.
  mesh_ = std::make_unique<noc::Mesh>(config_.mesh, &sim_);
  place_components();
  memory_ = std::make_unique<mem::MemorySystem>(*mesh_, config_.mem, l2_nodes_,
                                                mc_nodes_, &sim_);
  build_islands();

  abc::AbcConfig ac;
  ac.mode = config_.mode;
  ac.force_per_task = config_.force_per_task;
  ac.mono_instances = config_.mono_instances;
  abc_ = std::make_unique<abc::Abc>(sim_, *memory_, island_ptrs_, ac);

  abc::GamConfig gc;
  gc.node = gam_node_;
  gc.max_jobs_in_flight = config_.max_jobs_in_flight;
  gc.policy = config_.gam_policy;
  gc.request_latency = config_.gam_request_latency;
  gc.interrupt_overhead = config_.interrupt_overhead;
  gam_ = std::make_unique<abc::Gam>(sim_, *mesh_, *abc_, gc);

  setup_observability();
  if (check::enabled()) enable_invariant_checker();
}

void System::enable_invariant_checker() {
  if (checker_ == nullptr) {
    checker_ = std::make_unique<check::InvariantChecker>(*this);
  }
}

void System::setup_observability() {
  mesh_->set_stats(stats_);
  memory_->set_stats(stats_);
  for (auto& isl : islands_) isl->set_stats(stats_);
  abc_->set_stats(stats_);
  gam_->set_stats(stats_);

  if (!config_.trace_enabled) return;
  trace_.set_capacity(config_.trace_capacity);
  abc_->set_trace(&trace_);
  gam_->set_trace(&trace_);
  for (auto& isl : islands_) isl->set_trace(&trace_);

  // Name every track so the viewer shows "island 3 / slot 2: divide"
  // instead of raw pid/tid numbers.
  for (IslandId i = 0; i < islands_.size(); ++i) {
    trace_.name_process(i, "island " + std::to_string(i));
    const auto& isl = *islands_[i];
    for (AbbId a = 0; a < isl.num_abbs(); ++a) {
      const auto& e = isl.engine(a);
      trace_.name_thread(
          i, a,
          "slot " + std::to_string(a) + ": " +
              (e.is_fabric() ? "fabric" : abb::kind_name(e.kind())));
    }
    trace_.name_thread(i, sim::kTraceTidDma, "dma engine");
  }
  trace_.name_process(sim::kTracePidMem, "shared memory");
  trace_.name_process(sim::kTracePidNoc, "noc");
  trace_.name_process(sim::kTracePidGam, "gam");
  trace_.name_process(sim::kTracePidSim, "simulator");
}

void System::sample_trace_counters() {
  const Tick now = sim_.now();
  trace_.record_counter("gam queue", sim::kTracePidGam, now, "jobs",
                        static_cast<double>(gam_->queue_depth()));
  trace_.record_counter("abc pending", sim::kTracePidGam, now, "tasks",
                        static_cast<double>(abc_->pending_depth()));
  trace_.record_counter("event queue", sim::kTracePidSim, now, "events",
                        static_cast<double>(sim_.pending()));
  trace_.record_counter("noc peak link util", sim::kTracePidNoc, now, "util",
                        now == 0 ? 0.0 : mesh_->max_link_utilization(now));
  // Reschedule only while other work is pending, so the sampler never keeps
  // the event queue alive on its own.
  if (sim_.pending() > 0) {
    sim_.schedule_in(
        config_.trace_sample_interval, [this] { sample_trace_counters(); },
        sim::EventKind::kTraceSampler);
  }
}

void System::place_components() {
  auto& m = *mesh_;
  // Fig. 4-style floorplan on the 8x8 mesh:
  //  - memory controllers at the corners,
  //  - shared L2 banks in columns 2 and 5,
  //  - GAM at (3,3), cores filling the remaining centre nodes,
  //  - islands around the periphery (columns 0, 1, 6, 7, rows 1-6).
  mc_nodes_ = {m.node_at(0, 0), m.node_at(7, 0), m.node_at(0, 7),
               m.node_at(7, 7)};
  config_check(config_.mem.num_memory_controllers == mc_nodes_.size(),
               "placement supports exactly 4 memory controllers");

  for (std::uint32_t y = 0; y < 8; ++y) l2_nodes_.push_back(m.node_at(2, y));
  for (std::uint32_t y = 0; y < 8; ++y) l2_nodes_.push_back(m.node_at(5, y));
  config_check(config_.mem.num_l2_banks == l2_nodes_.size(),
               "placement supports exactly 16 L2 banks");

  gam_node_ = m.node_at(3, 3);
  for (std::uint32_t x : {3u, 4u}) {
    for (std::uint32_t y : {0u, 1u, 2u, 4u}) {
      core_nodes_.push_back(m.node_at(x, y));
    }
  }
  config_check(config_.num_cores <= core_nodes_.size(),
               "too many cores for the floorplan");
  core_nodes_.resize(config_.num_cores);

  for (std::uint32_t x : {0u, 1u, 6u, 7u}) {
    for (std::uint32_t y = 1; y <= 6; ++y) {
      island_nodes_.push_back(m.node_at(x, y));
    }
  }
  config_check(config_.num_islands <= island_nodes_.size(),
               "too many islands for the floorplan");
  island_nodes_.resize(config_.num_islands);
}

void System::build_islands() {
  // Deal the paper's ABB mix uniformly across islands: the global kind list
  // is strided so each island receives a proportional share (Sec. 4).
  const auto mix = abb::scaled_mix(config_.total_abbs);
  std::vector<abb::AbbKind> global;
  global.reserve(config_.total_abbs);
  for (std::size_t k = 0; k < abb::kNumAsicAbbKinds; ++k) {
    for (std::uint32_t i = 0; i < mix.count[k]; ++i) {
      global.push_back(abb::asic_kinds()[k]);
    }
  }
  const std::uint32_t n = config_.num_islands;
  island_abbs_.assign(n, {});
  for (std::uint32_t i = 0; i < global.size(); ++i) {
    island_abbs_[i % n].push_back(global[i]);
  }

  for (IslandId i = 0; i < n; ++i) {
    islands_.push_back(std::make_unique<island::Island>(
        i, *mesh_, island_nodes_[i], *memory_, config_.island,
        island_abbs_[i], &sim_));
    island_ptrs_.push_back(islands_.back().get());
  }
}

double System::islands_area_mm2() const {
  double sum = 0;
  for (const auto& isl : islands_) sum += isl->total_area_mm2();
  return sum;
}

RunResult System::run(const workloads::Workload& workload) {
  const auto* dfg = &workload.dfg;
  config_check(dfg->finalized() && !dfg->empty(),
               "workload DFG must be finalized and non-empty");

  // Rotated input/output tile buffers (controls the L2 working set).
  const std::uint32_t rotation = std::max<std::uint32_t>(
      1, std::min(workload.buffer_rotation, workload.invocations));
  std::vector<Addr> in_bufs(rotation), out_bufs(rotation);
  const Bytes in_bytes = std::max<Bytes>(dfg->total_mem_in(), kBlockBytes);
  const Bytes out_bytes = std::max<Bytes>(dfg->total_mem_out(), kBlockBytes);
  for (std::uint32_t r = 0; r < rotation; ++r) {
    in_bufs[r] = memory_->allocate(in_bytes);
    out_bufs[r] = memory_->allocate(out_bytes);
    // BiN: pin the streaming buffers into the NUCA L2 (budget permitting).
    memory_->pin_buffer(in_bufs[r], in_bytes);
    memory_->pin_buffer(out_bufs[r], out_bytes);
  }

  if (checker_ != nullptr) checker_->begin_run(workload);

  std::uint32_t submitted = 0;
  std::uint32_t completed = 0;
  Tick makespan = 0;

  // Self-sustaining submission window: `concurrency` invocations in flight,
  // refilled from each completion (tile pipeline on the cores).
  std::function<void()> submit_next = [&] {
    if (submitted >= workload.invocations) return;
    const std::uint32_t i = submitted++;
    const NodeId origin = core_nodes_[i % core_nodes_.size()];
    gam_->submit(dfg, in_bufs[i % rotation], out_bufs[i % rotation], origin,
                 [&](JobId, Tick done) {
                   ++completed;
                   makespan = std::max(makespan, done);
                   submit_next();
                 });
  };
  const std::uint32_t initial =
      std::min(workload.concurrency, workload.invocations);
  for (std::uint32_t i = 0; i < initial; ++i) submit_next();

  if (config_.trace_enabled && config_.trace_sample_interval > 0) {
    sim_.schedule_in(
        config_.trace_sample_interval, [this] { sample_trace_counters(); },
        sim::EventKind::kTraceSampler);
  }

  if (sim_.pending() > 0) ++busy_runs_;
  sim_.run();
  config_check(completed == workload.invocations,
               "simulation drained with incomplete jobs (deadlock?)");

  RunResult r;
  r.workload = workload.name;
  r.config = config_.summary();
  r.makespan = makespan;
  r.jobs = completed;
  r.energy =
      power::collect_energy(island_ptrs_, *mesh_, *memory_, *abc_, makespan);
  r.area = power::collect_area(island_ptrs_, *mesh_, *memory_);

  double util_sum = 0;
  for (const auto& isl : islands_) {
    util_sum += isl->avg_abb_utilization(makespan);
    r.peak_abb_utilization =
        std::max(r.peak_abb_utilization, isl->peak_abb_utilization(makespan));
  }
  r.avg_abb_utilization = util_sum / static_cast<double>(islands_.size());
  if (config_.mode == abc::ExecutionMode::kMonolithic && makespan > 0) {
    // Monolithic mode: "utilization" is the fused accelerator's busy share.
    double busy = 0;
    for (std::size_t i = 0; i < abc_->mono_instance_count(); ++i) {
      busy += static_cast<double>(abc_->mono_busy_cycles(i));
    }
    r.avg_abb_utilization =
        busy / static_cast<double>(makespan) /
        static_cast<double>(abc_->mono_instance_count());
  }
  r.l2_hit_rate = memory_->l2_hit_rate();
  r.dram_bytes = memory_->dram_bytes();
  r.chains_direct = abc_->chains_direct();
  r.chains_spilled = abc_->chains_spilled();
  r.tasks_queued = abc_->tasks_queued();
  r.noc_peak_link_utilization = mesh_->max_link_utilization(makespan);
  const auto& lat = gam_->job_latency();
  r.job_latency_mean = lat.mean();
  r.job_latency_p50 = lat.percentile(0.50);
  r.job_latency_p95 = lat.percentile(0.95);
  r.job_latency_max = lat.max_seen();

  snapshot_stats(makespan);
  if (checker_ != nullptr) checker_->end_run(r);
  return r;
}

void System::snapshot_stats(Tick makespan) {
  stats_.set_counter("sim.ticks", makespan);
  stats_.set_counter("sim.events", sim_.events_processed());
  const auto& kinds = sim_.kind_stats();
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    stats_.set_counter(
        std::string("sim.events.") +
            sim::event_kind_name(static_cast<sim::EventKind>(k)),
        kinds[k].count);
  }
  // Frozen: these six follow from the config and the number of busy run()
  // calls and tell nothing new, but they are part of every cached entry's
  // bytes (and of perfbench/digests.txt), so they stay until the next
  // kSimVersionSalt bump deletes them.
  stats_.set_counter("sim.shard.sites", 1 + config_.num_islands);
  stats_.set_counter("sim.shard.windows", busy_runs_);
  stats_.set_counter("sim.shard.cross.sent", 0);
  stats_.set_counter("sim.shard.cross.delivered", 0);
  stats_.set_counter("sim.shard.channel.peak", 0);
  stats_.set_counter("sim.shard.idle_site_windows",
                     busy_runs_ * config_.num_islands);
  stats_.set_counter("noc.flit_hops", mesh_->total_flit_hops());
  stats_.set_counter("noc.bytes_injected", mesh_->total_bytes_injected());
  stats_.set_counter("noc.packets", mesh_->total_packets());
  memory_->snapshot_stats(stats_);
  for (const auto& isl : islands_) isl->snapshot_stats(stats_);
  abc_->snapshot_stats(stats_);
  gam_->snapshot_stats(stats_);
  if (config_.trace_enabled) {
    stats_.set_counter("trace.events", trace_.size());
    stats_.set_counter("trace.dropped", trace_.dropped());
  }
}

}  // namespace ara::core
