#include "island/island.h"

#include <algorithm>

#include "common/config_error.h"
#include "power/area_model.h"

namespace ara::island {

namespace {
/// With neighbor sharing, per-ABB SPM capacity drops to ~2/3 (Sec. 5.1:
/// sharing "potentially reduces the number of SPM banks by 0.66X").
Bytes effective_spm_bytes(Bytes base, bool sharing) {
  return sharing ? base * 2 / 3 : base;
}
}  // namespace

Island::Island(IslandId id, noc::Mesh& mesh, NodeId node,
               mem::MemorySystem& mem, const IslandConfig& config,
               const std::vector<abb::AbbKind>& abbs,
               const sim::Simulator* clock)
    : id_(id),
      mesh_(mesh),
      node_(node),
      mem_(mem),
      config_(config),
      dma_("isl" + std::to_string(id) + ".dma", config.dma_bytes_per_cycle,
           config.dma_chunk_bytes, clock),
      tlb_("isl" + std::to_string(id) + ".tlb", config.tlb) {
  config_check(!abbs.empty() || config.fabric_blocks > 0,
               "island needs at least one compute block");
  config_check(config.spm_port_multiplier >= 1,
               "SPM port multiplier must be >= 1");

  const std::string prefix = "isl" + std::to_string(id);
  AbbId next = 0;
  auto add_block = [&](abb::AbbKind kind, bool fabric) {
    const auto& p = abb::params(fabric ? abb::AbbKind::kFabric : kind);
    const std::uint32_t ports = p.min_spm_ports * config.spm_port_multiplier;
    engines_.push_back(std::make_unique<abb::AbbEngine>(
        id_, next, kind, ports, config.base_conflict_rate, fabric));
    const Bytes cap = effective_spm_bytes(p.spm_bytes, config.spm_sharing);
    spms_.push_back(std::make_unique<SpmGroup>(
        prefix + ".spm" + std::to_string(next), cap, ports, ports));
    // The crossbar's size is set by its connectivity (ports x banks
    // reached), not by the shrunken bank capacity, so it is derived from
    // the kind's baseline SPM footprint.
    xbars_.push_back(std::make_unique<AbbSpmXbar>(
        prefix + ".axs" + std::to_string(next), ports, p.spm_bytes,
        config.spm_sharing));
    ++next;
  };

  for (abb::AbbKind kind : abbs) add_block(kind, /*fabric=*/false);
  for (std::uint32_t i = 0; i < config.fabric_blocks; ++i) {
    add_block(abb::AbbKind::kPoly, /*fabric=*/true);
  }

  net_ = make_spm_dma_net(prefix + ".net", config.net, num_abbs(), clock);
}

Tick Island::dma_load(Tick ready_at, Addr addr, Bytes bytes, AbbId dst) {
  if (bytes == 0) return ready_at;
  const Tick issued = ready_at;
  // DMA descriptors carry virtual addresses; translate every page touched
  // before the transfer streams (hardware overlaps walks with setup).
  if (config_.tlb_enabled) {
    ready_at = tlb_.translate_range(ready_at, addr, bytes);
  }
  Tick done = ready_at;
  Tick dma_stage_done = ready_at;
  Bytes off = 0;
  while (off < bytes) {
    const Bytes chunk = std::min<Bytes>(bytes - off, dma_.chunk_bytes());
    Tick t = mem_.read(ready_at, node_, addr + off, chunk);
    t = dma_.process(t, chunk);
    dma_stage_done = std::max(dma_stage_done, t);
    t = net_->to_spm(t, dst, chunk);
    t += xbars_[dst]->latency();
    done = std::max(done, t);
    off += chunk;
  }
  spms_[dst]->record_write(bytes);
  xbars_[dst]->record(bytes);
  if (dma_load_latency_h_ != nullptr) {
    dma_load_latency_h_->record(done - issued);
    dma_loads_c_->inc();
  }
  if (trace_ != nullptr) {
    // Arrow following the payload: shared memory -> this island's DMA
    // engine -> the destination SPM slot.
    trace_->record_span("dma_load", id_, sim::kTraceTidDma, issued, done,
                        "dma");
    const auto flow =
        trace_->begin_flow("dma_load", sim::kTracePidMem, 0, issued, "dma");
    trace_->step_flow(flow, "dma_load", id_, sim::kTraceTidDma,
                      dma_stage_done, "dma");
    trace_->end_flow(flow, "dma_load", id_, dst, done, "dma");
  }
  return done;
}

Tick Island::dma_store(Tick ready_at, AbbId src, Addr addr, Bytes bytes) {
  if (bytes == 0) return ready_at;
  const Tick issued = ready_at;
  if (config_.tlb_enabled) {
    ready_at = tlb_.translate_range(ready_at, addr, bytes);
  }
  Tick done = ready_at;
  Tick dma_stage_done = ready_at;
  Bytes off = 0;
  while (off < bytes) {
    const Bytes chunk = std::min<Bytes>(bytes - off, dma_.chunk_bytes());
    Tick t = ready_at + xbars_[src]->latency();
    t = net_->from_spm(t, src, chunk);
    t = dma_.process(t, chunk);
    dma_stage_done = std::max(dma_stage_done, t);
    t = mem_.write(t, node_, addr + off, chunk);
    done = std::max(done, t);
    off += chunk;
  }
  spms_[src]->record_read(bytes);
  xbars_[src]->record(bytes);
  if (dma_store_latency_h_ != nullptr) {
    dma_store_latency_h_->record(done - issued);
    dma_stores_c_->inc();
  }
  if (trace_ != nullptr) {
    // SPM slot -> DMA engine -> shared memory.
    trace_->record_span("dma_store", id_, sim::kTraceTidDma, issued, done,
                        "dma");
    const auto flow = trace_->begin_flow("dma_store", id_, src, issued, "dma");
    trace_->step_flow(flow, "dma_store", id_, sim::kTraceTidDma,
                      dma_stage_done, "dma");
    trace_->end_flow(flow, "dma_store", sim::kTracePidMem, 0, done, "dma");
  }
  return done;
}

Tick Island::chain(Tick ready_at, Island& src_island, AbbId src,
                   Island& dst_island, AbbId dst, Bytes bytes) {
  if (bytes == 0) return ready_at;
  src_island.spms_[src]->record_read(bytes);
  src_island.xbars_[src]->record(bytes);
  dst_island.spms_[dst]->record_write(bytes);
  dst_island.xbars_[dst]->record(bytes);

  Tick done = ready_at;
  if (&src_island == &dst_island) {
    // Intra-island: the SPM<->DMA network's chaining path, chunked for
    // pipelining.
    Bytes off = 0;
    while (off < bytes) {
      const Bytes chunk =
          std::min<Bytes>(bytes - off, src_island.dma_.chunk_bytes());
      Tick t = ready_at + src_island.xbars_[src]->latency();
      t = src_island.net_->chain(t, src, dst, chunk);
      t += dst_island.xbars_[dst]->latency();
      done = std::max(done, t);
      off += chunk;
    }
    return done;
  }

  // Inter-island: source SPM -> source DMA -> NoC -> dest DMA -> dest SPM.
  Bytes off = 0;
  while (off < bytes) {
    const Bytes chunk =
        std::min<Bytes>(bytes - off, src_island.dma_.chunk_bytes());
    Tick t = ready_at + src_island.xbars_[src]->latency();
    t = src_island.net_->from_spm(t, src, chunk);
    t = src_island.dma_.process(t, chunk);
    t = src_island.mesh_.transfer(t, src_island.node_, dst_island.node_,
                                  chunk);
    t = dst_island.dma_.process(t, chunk);
    t = dst_island.net_->to_spm(t, dst, chunk);
    t += dst_island.xbars_[dst]->latency();
    done = std::max(done, t);
    off += chunk;
  }
  return done;
}

double Island::compute_area_mm2() const {
  double sum = 0;
  for (const auto& e : engines_) sum += e->area_mm2();
  return sum;
}

double Island::spm_area_mm2() const {
  double sum = 0;
  for (const auto& s : spms_) sum += s->area_mm2();
  return sum;
}

double Island::abb_spm_xbar_area_mm2() const {
  double sum = 0;
  for (const auto& x : xbars_) sum += x->area_mm2();
  return sum;
}

double Island::net_area_mm2() const { return net_->area_mm2(); }

double Island::total_area_mm2() const {
  return compute_area_mm2() + spm_area_mm2() + abb_spm_xbar_area_mm2() +
         net_area_mm2() + dma_.area_mm2() + power::kNocInterfaceMm2;
}

double Island::dynamic_energy_j() const {
  return compute_energy_j() + spm_energy_j() + xbar_energy_j() +
         net_energy_j() + dma_energy_j();
}

double Island::compute_energy_j() const {
  double sum = 0;
  for (const auto& e : engines_) sum += e->dynamic_energy_j();
  return sum;
}

double Island::spm_energy_j() const {
  double sum = 0;
  for (const auto& s : spms_) sum += s->dynamic_energy_j();
  return sum;
}

double Island::xbar_energy_j() const {
  double sum = 0;
  for (const auto& x : xbars_) sum += x->dynamic_energy_j();
  return sum;
}

double Island::net_energy_j() const { return net_->dynamic_energy_j(); }

double Island::dma_energy_j() const { return dma_.dynamic_energy_j(); }

double Island::leakage_mw() const {
  double sum = 0;
  for (const auto& e : engines_) sum += e->leakage_mw();
  for (const auto& s : spms_) sum += s->leakage_mw();
  for (const auto& x : xbars_) sum += x->leakage_mw();
  sum += net_->leakage_mw();
  sum += dma_.leakage_mw();
  return sum;
}

double Island::avg_abb_utilization(Tick elapsed) const {
  if (engines_.empty()) return 0.0;
  double sum = 0;
  for (const auto& e : engines_) sum += e->utilization(elapsed);
  return sum / static_cast<double>(engines_.size());
}

double Island::peak_abb_utilization(Tick elapsed) const {
  double peak = 0;
  for (const auto& e : engines_) {
    peak = std::max(peak, e->utilization(elapsed));
  }
  return peak;
}

void Island::set_stats(sim::StatRegistry& reg) {
  const std::string p = "island." + std::to_string(id_) + ".";
  dma_load_latency_h_ = &reg.histogram(p + "dma.load_latency",
                                       /*bucket_width=*/64, /*buckets=*/128);
  dma_store_latency_h_ = &reg.histogram(p + "dma.store_latency",
                                        /*bucket_width=*/64, /*buckets=*/128);
  dma_loads_c_ = &reg.counter(p + "dma.loads");
  dma_stores_c_ = &reg.counter(p + "dma.stores");
}

void Island::snapshot_stats(sim::StatRegistry& reg) const {
  const std::string p = "island." + std::to_string(id_) + ".";
  Bytes spm_read = 0, spm_written = 0;
  for (const auto& s : spms_) {
    spm_read += s->bytes_read();
    spm_written += s->bytes_written();
  }
  reg.set_counter(p + "spm.bytes_read", spm_read);
  reg.set_counter(p + "spm.bytes_written", spm_written);

  std::uint64_t conflicts = 0, tasks = 0, elements = 0;
  for (const auto& e : engines_) {
    conflicts += e->bank_conflict_estimate();
    tasks += e->tasks_executed();
    elements += e->elements_processed();
  }
  reg.set_counter(p + "spm.bank_conflicts", conflicts);
  reg.set_counter(p + "abb.tasks", tasks);
  reg.set_counter(p + "abb.elements", elements);

  Bytes xbar_bytes = 0;
  for (const auto& x : xbars_) xbar_bytes += x->total_bytes();
  reg.set_counter(p + "xbar.bytes", xbar_bytes);
  reg.set_counter(p + "net.bytes", net_->total_bytes());
  reg.set_counter(p + "dma.bytes", dma_.total_bytes());
  reg.set_counter(p + "dma.transfers", dma_.transfers());
  reg.set_counter(p + "tlb.hits", tlb_.hits());
  reg.set_counter(p + "tlb.misses", tlb_.misses());
}

}  // namespace ara::island
