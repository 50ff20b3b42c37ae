#include "mem/memory_system.h"

#include <algorithm>

#include "common/config_error.h"

namespace ara::mem {

MemorySystem::MemorySystem(noc::Mesh& mesh, const MemorySystemConfig& config,
                           std::vector<NodeId> l2_nodes,
                           std::vector<NodeId> mc_nodes,
                           const sim::Simulator* clock)
    : mesh_(mesh),
      config_(config),
      l2_nodes_(std::move(l2_nodes)),
      mc_nodes_(std::move(mc_nodes)) {
  config_check(config.num_l2_banks > 0, "need at least one L2 bank");
  config_check(config.num_memory_controllers > 0,
               "need at least one memory controller");
  config_check(config.mc_interleave > 0,
               "memory-controller interleave must be positive");
  config_check(l2_nodes_.size() == config.num_l2_banks,
               "L2 node placement size mismatch");
  config_check(mc_nodes_.size() == config.num_memory_controllers,
               "MC node placement size mismatch");
  for (std::uint32_t i = 0; i < config.num_l2_banks; ++i) {
    l2_banks_.push_back(std::make_unique<L2Bank>(
        "mem.l2b" + std::to_string(i), config.l2, clock));
  }
  for (std::uint32_t i = 0; i < config.num_memory_controllers; ++i) {
    mcs_.push_back(std::make_unique<MemoryController>(
        "mem.mc" + std::to_string(i), config.mc, clock));
  }
  std::vector<Bytes> capacities(l2_banks_.size(), config.l2.capacity);
  bin_ = std::make_unique<BinAllocator>(config.bin, std::move(capacities));
}

Bytes MemorySystem::pin_buffer(Addr addr, Bytes bytes) {
  if (!config_.bin_pinning) return 0;
  return bin_->pin_range(addr, bytes);
}

Addr MemorySystem::allocate(Bytes size) {
  const Addr result = next_addr_;
  next_addr_ += ceil_div<Bytes>(size, kBlockBytes) * kBlockBytes;
  return result;
}

Tick MemorySystem::access_block(Tick ready_at, NodeId src, Addr block_start,
                                bool is_write) {
  if (config_.l2_bypass) {
    // Straight to the owning controller over the NoC.
    const std::size_t mc_idx = mc_of(block_start);
    const NodeId mc_node = mc_nodes_[mc_idx];
    Tick t = mesh_.transfer(ready_at, src, mc_node,
                            is_write ? kBlockBytes : config_.control_bytes);
    const Tick mc_start = t;
    t = mcs_[mc_idx]->access(t, kBlockBytes);
    if (!mc_latency_h_.empty()) {
      mc_latency_h_[mc_idx][is_write ? 1 : 0]->record(t - mc_start);
    }
    if (!is_write) t = mesh_.transfer(t, mc_node, src, kBlockBytes);
    return t;
  }
  const Addr block_addr = block_start / kBlockBytes;
  const std::size_t bank_idx = bank_of(block_addr);
  L2Bank& bank = *l2_banks_[bank_idx];
  const NodeId bank_node = l2_nodes_[bank_idx];

  // BiN-pinned blocks are guaranteed residents of their bank: serve as a
  // hit without touching the tag array.
  if (config_.bin_pinning && bin_->is_pinned(block_start)) {
    Tick t = mesh_.transfer(ready_at, src, bank_node,
                            is_write ? kBlockBytes : config_.control_bytes);
    t = bank.access_pinned(t);
    if (!is_write) t = mesh_.transfer(t, bank_node, src, kBlockBytes);
    return t;
  }
  // Bank-local address: strip the interleave bits so a bank's blocks spread
  // over all of its sets (block % banks selects the bank, so without this
  // every resident block would land in the same 1/banks slice of sets).
  const Addr bank_local = (block_addr / l2_banks_.size()) * kBlockBytes;

  Tick t = ready_at;
  if (is_write) {
    // Data travels with the request on a write.
    t = mesh_.transfer(t, src, bank_node, kBlockBytes);
  } else {
    t = mesh_.transfer(t, src, bank_node, config_.control_bytes);
  }

  const auto result = bank.access(t, bank_local, is_write);
  t = result.bank_done;

  if (!result.hit) {
    // Miss path: request to the owning controller, DRAM access, fill back.
    const std::size_t mc_idx = mc_of(block_start);
    const NodeId mc_node = mc_nodes_[mc_idx];
    t = mesh_.transfer(t, bank_node, mc_node,
                       is_write ? kBlockBytes : config_.control_bytes);
    const Tick mc_start = t;
    t = mcs_[mc_idx]->access(t, kBlockBytes);
    if (!mc_latency_h_.empty()) {
      mc_latency_h_[mc_idx][is_write ? 1 : 0]->record(t - mc_start);
    }
    if (!is_write) {
      t = mesh_.transfer(t, mc_node, bank_node, kBlockBytes);
    }
  }

  if (!is_write) {
    // Data response to the requester.
    t = mesh_.transfer(t, bank_node, src, kBlockBytes);
  }
  return t;
}

Tick MemorySystem::read(Tick ready_at, NodeId src, Addr addr, Bytes bytes) {
  if (bytes == 0) return ready_at;
  Tick done = ready_at;
  const Addr first = addr / kBlockBytes;
  const Addr last = (addr + bytes - 1) / kBlockBytes;
  for (Addr b = first; b <= last; ++b) {
    done = std::max(done, access_block(ready_at, src, b * kBlockBytes, false));
  }
  if (read_latency_h_ != nullptr) read_latency_h_->record(done - ready_at);
  return done;
}

Tick MemorySystem::write(Tick ready_at, NodeId src, Addr addr, Bytes bytes) {
  if (bytes == 0) return ready_at;
  Tick done = ready_at;
  const Addr first = addr / kBlockBytes;
  const Addr last = (addr + bytes - 1) / kBlockBytes;
  for (Addr b = first; b <= last; ++b) {
    done = std::max(done, access_block(ready_at, src, b * kBlockBytes, true));
  }
  if (write_latency_h_ != nullptr) write_latency_h_->record(done - ready_at);
  return done;
}

void MemorySystem::set_stats(sim::StatRegistry& reg) {
  read_latency_h_ = &reg.histogram("mem.read_latency",
                                   /*bucket_width=*/64, /*buckets=*/128);
  write_latency_h_ = &reg.histogram("mem.write_latency",
                                    /*bucket_width=*/64, /*buckets=*/128);
  mc_latency_h_.assign(mcs_.size(), {nullptr, nullptr});
  for (std::size_t i = 0; i < mcs_.size(); ++i) {
    const std::string p = "mem.mc." + std::to_string(i) + ".";
    mc_latency_h_[i][0] = &reg.histogram(p + "read_latency",
                                         /*bucket_width=*/32, /*buckets=*/64);
    mc_latency_h_[i][1] = &reg.histogram(p + "write_latency",
                                         /*bucket_width=*/32, /*buckets=*/64);
  }
}

void MemorySystem::snapshot_stats(sim::StatRegistry& reg) const {
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t i = 0; i < l2_banks_.size(); ++i) {
    hits += l2_banks_[i]->hits();
    misses += l2_banks_[i]->misses();
    reg.set_counter("mem.l2.bank." + std::to_string(i) + ".accesses",
                    l2_banks_[i]->accesses());
  }
  reg.set_counter("mem.l2.hits", hits);
  reg.set_counter("mem.l2.misses", misses);
  for (std::size_t i = 0; i < mcs_.size(); ++i) {
    const std::string p = "mem.mc." + std::to_string(i) + ".";
    reg.set_counter(p + "bytes", mcs_[i]->total_bytes());
    reg.set_counter(p + "accesses", mcs_[i]->accesses());
  }
  reg.set_counter("mem.dram_bytes", dram_bytes());
}

double MemorySystem::l2_hit_rate() const {
  std::uint64_t hits = 0, total = 0;
  for (const auto& b : l2_banks_) {
    hits += b->hits();
    total += b->accesses();
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

Bytes MemorySystem::dram_bytes() const {
  Bytes sum = 0;
  for (const auto& mc : mcs_) sum += mc->total_bytes();
  return sum;
}

void MemorySystem::flush_caches() {
  for (auto& b : l2_banks_) b->flush();
}

}  // namespace ara::mem
