// MemorySystem: the shared memory hierarchy seen by cores and islands.
//
// Owns the L2 banks and memory controllers, knows where they sit on the
// mesh, interleaves addresses across banks/controllers, and provides
// whole-transfer read/write operations that DMA engines call. Also provides
// the (trivial) physical address allocator workloads use to lay out their
// buffers — the simulator moves metadata, not real data.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/bin_allocator.h"
#include "mem/l2_cache.h"
#include "mem/memory_controller.h"
#include "noc/mesh.h"
#include "sim/stats.h"

namespace ara::mem {

struct MemorySystemConfig {
  std::uint32_t num_memory_controllers = 4;  // paper Sec. 4
  std::uint32_t num_l2_banks = 16;
  MemoryControllerConfig mc;
  L2BankConfig l2;
  /// Size of the request control message (header flit) on the NoC.
  Bytes control_bytes = 16;
  /// DRAM page interleave across controllers.
  Bytes mc_interleave = 4096;
  /// Ablation: route accelerator DMA straight to the memory controllers,
  /// bypassing the shared L2 banks (the organization BiN [7] argues
  /// against).
  bool l2_bypass = false;
  /// BiN-style buffer pinning in the NUCA L2 (paper Sec. 7 / [7]): when
  /// enabled, System pins workload buffers via pin_range and pinned blocks
  /// hit unconditionally at their bank.
  bool bin_pinning = false;
  BinConfig bin;
};

class MemorySystem {
 public:
  /// `l2_nodes` / `mc_nodes` give each bank/controller's mesh position;
  /// their sizes must match the config counts. `clock`, when given, sets
  /// every bank port's and controller channel's floor (see SharedLink).
  MemorySystem(noc::Mesh& mesh, const MemorySystemConfig& config,
               std::vector<NodeId> l2_nodes, std::vector<NodeId> mc_nodes,
               const sim::Simulator* clock = nullptr);

  /// Allocate a buffer in the simulated physical address space.
  Addr allocate(Bytes size);

  /// Read `bytes` starting at `addr` into a requester at mesh node `src`.
  /// Models, per block: request message to the owning L2 bank, tag lookup,
  /// miss path over the NoC to the owning controller and back, and the data
  /// response back to `src`. Returns the arrival tick of the last block.
  Tick read(Tick ready_at, NodeId src, Addr addr, Bytes bytes);

  /// Write `bytes` from `src` to `addr` (write-allocate at L2; misses and
  /// evictions cost a DRAM access).
  Tick write(Tick ready_at, NodeId src, Addr addr, Bytes bytes);

  // --- observability ---
  std::size_t l2_bank_count() const { return l2_banks_.size(); }
  const L2Bank& l2_bank(std::size_t i) const { return *l2_banks_[i]; }
  const MemoryController& controller(std::size_t i) const { return *mcs_[i]; }
  std::size_t controller_count() const { return mcs_.size(); }
  double l2_hit_rate() const;
  Bytes dram_bytes() const;

  /// Install live instrumentation into `reg`: whole-transfer
  /// "mem.read_latency"/"mem.write_latency" histograms plus per-controller
  /// "mem.mc.<i>.read_latency"/"mem.mc.<i>.write_latency" (queueing + DRAM
  /// access per block).
  void set_stats(sim::StatRegistry& reg);

  /// Roll component totals (L2 hits/misses per bank, controller traffic)
  /// into `reg` under "mem.*" (end-of-run snapshot).
  void snapshot_stats(sim::StatRegistry& reg) const;

  /// Drop all cached state (between experiment runs).
  void flush_caches();

  /// --- BiN buffer pinning ---
  /// Pin [addr, addr+bytes) into the owning banks; returns bytes pinned
  /// (budget-limited). No-op (0) unless bin_pinning is enabled.
  Bytes pin_buffer(Addr addr, Bytes bytes);
  const BinAllocator& bin() const { return *bin_; }

  const MemorySystemConfig& config() const { return config_; }

 private:
  std::size_t bank_of(Addr block_addr) const {
    return static_cast<std::size_t>(block_addr) % l2_banks_.size();
  }
  std::size_t mc_of(Addr addr) const {
    return static_cast<std::size_t>(addr / config_.mc_interleave) %
           mcs_.size();
  }
  Tick access_block(Tick ready_at, NodeId src, Addr block_start,
                    bool is_write);

  noc::Mesh& mesh_;
  MemorySystemConfig config_;
  std::vector<std::unique_ptr<L2Bank>> l2_banks_;
  std::vector<std::unique_ptr<MemoryController>> mcs_;
  std::vector<NodeId> l2_nodes_;
  std::vector<NodeId> mc_nodes_;
  std::unique_ptr<BinAllocator> bin_;
  Addr next_addr_ = 0x1000;
  /// Live instrumentation (null until set_stats). mc_latency_h_[i][w] is
  /// controller i's histogram, w = 1 for writes.
  sim::Histogram* read_latency_h_ = nullptr;
  sim::Histogram* write_latency_h_ = nullptr;
  std::vector<std::array<sim::Histogram*, 2>> mc_latency_h_;
};

}  // namespace ara::mem
