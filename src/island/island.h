// Island: one ABB island — ABB compute engines, their private SPM groups
// and ABB<->SPM crossbars, the SPM<->DMA network, the DMA engine, and the
// island's NoC interface (paper Sec. 3.1 / Fig. 5).
//
// The island provides the data-movement primitives the runtime (ABC /
// scheduler) composes into task execution: DMA loads/stores against shared
// memory, and chain transfers between producer and consumer SPM groups
// (intra-island over the SPM<->DMA network, inter-island over the NoC).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abb/abb_engine.h"
#include "abb/abb_types.h"
#include "common/types.h"
#include "island/abb_spm_xbar.h"
#include "island/dma_engine.h"
#include "island/island_config.h"
#include "island/spm.h"
#include "island/spm_dma_net.h"
#include "island/tlb.h"
#include "mem/memory_system.h"
#include "noc/mesh.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace ara::island {

class Island {
 public:
  /// `abbs` lists the ASIC ABB kinds instantiated on this island, in slot
  /// order; `config.fabric_blocks` additional programmable-fabric slots are
  /// appended after them. `clock`, when given, sets the floor of the DMA
  /// engine and of every SPM<->DMA network link (see SharedLink).
  Island(IslandId id, noc::Mesh& mesh, NodeId node, mem::MemorySystem& mem,
         const IslandConfig& config, const std::vector<abb::AbbKind>& abbs,
         const sim::Simulator* clock = nullptr);

  IslandId id() const { return id_; }
  NodeId node() const { return node_; }
  const IslandConfig& config() const { return config_; }

  std::uint32_t num_abbs() const {
    return static_cast<std::uint32_t>(engines_.size());
  }
  abb::AbbEngine& engine(AbbId a) { return *engines_[a]; }
  const abb::AbbEngine& engine(AbbId a) const { return *engines_[a]; }
  SpmGroup& spm(AbbId a) { return *spms_[a]; }
  const SpmGroup& spm(AbbId a) const { return *spms_[a]; }
  SpmDmaNet& net() { return *net_; }
  const SpmDmaNet& net() const { return *net_; }
  const DmaEngine& dma() const { return dma_; }
  const Tlb& tlb() const { return tlb_; }

  /// DMA load: shared memory [addr, addr+bytes) -> SPM group of `dst`.
  /// Chunked so the NoC/memory path, DMA engine and island network pipeline.
  Tick dma_load(Tick ready_at, Addr addr, Bytes bytes, AbbId dst);

  /// DMA store: SPM group of `src` -> shared memory [addr, addr+bytes).
  Tick dma_store(Tick ready_at, AbbId src, Addr addr, Bytes bytes);

  /// Chain transfer between two ABBs, possibly across islands. Intra-island
  /// uses the SPM<->DMA network's chain path; inter-island crosses both
  /// islands' DMA engines and the NoC.
  static Tick chain(Tick ready_at, Island& src_island, AbbId src,
                    Island& dst_island, AbbId dst, Bytes bytes);

  /// --- area & energy roll-ups ---
  double compute_area_mm2() const;
  double spm_area_mm2() const;
  double abb_spm_xbar_area_mm2() const;
  double net_area_mm2() const;
  double total_area_mm2() const;

  /// Dynamic energy of everything island-local (compute, SPM, crossbars,
  /// island network, DMA), in joules.
  double dynamic_energy_j() const;
  /// Per-component dynamic energies, joules.
  double compute_energy_j() const;
  double spm_energy_j() const;
  double xbar_energy_j() const;
  double net_energy_j() const;
  double dma_energy_j() const;
  /// Total island leakage power, mW.
  double leakage_mw() const;

  /// Average ABB utilization over an elapsed window.
  double avg_abb_utilization(Tick elapsed) const;
  /// Peak single-ABB utilization over an elapsed window.
  double peak_abb_utilization(Tick elapsed) const;

  /// Install live instrumentation into `reg` under "island.<id>.*": DMA
  /// load/store latency histograms and transfer counters.
  void set_stats(sim::StatRegistry& reg);

  /// Roll component totals (SPM/crossbar/net/DMA traffic, TLB hit/miss,
  /// bank-conflict estimates) into `reg` under "island.<id>.*".
  void snapshot_stats(sim::StatRegistry& reg) const;

  /// Attach a trace collector: each DMA transfer records a span on this
  /// island's DMA track plus a flow arrow following the payload between the
  /// memory side and the SPM slot.
  void set_trace(sim::TraceCollector* trace) { trace_ = trace; }

 private:
  IslandId id_;
  noc::Mesh& mesh_;
  NodeId node_;
  mem::MemorySystem& mem_;
  IslandConfig config_;
  std::vector<std::unique_ptr<abb::AbbEngine>> engines_;
  std::vector<std::unique_ptr<SpmGroup>> spms_;
  std::vector<std::unique_ptr<AbbSpmXbar>> xbars_;
  std::unique_ptr<SpmDmaNet> net_;
  DmaEngine dma_;
  Tlb tlb_;
  /// Live instrumentation (null until set_stats / set_trace).
  sim::Histogram* dma_load_latency_h_ = nullptr;
  sim::Histogram* dma_store_latency_h_ = nullptr;
  sim::Counter* dma_loads_c_ = nullptr;
  sim::Counter* dma_stores_c_ = nullptr;
  sim::TraceCollector* trace_ = nullptr;
};

}  // namespace ara::island
