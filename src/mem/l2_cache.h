// Shared L2 cache bank: a real set-associative LRU tag array plus a
// bandwidth-limited port. Accelerator DMA traffic flows through the shared
// L2 banks on the NoC (the ARC/CHARM organization; cf. BiN [7]), so reuse
// between kernel invocations is captured by actual tag hits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/shared_link.h"

namespace ara::mem {

struct L2BankConfig {
  Bytes capacity = 384 * 1024;  // per-bank; 16 banks ~= 6 MB total
  std::uint32_t associativity = 8;
  Bytes block_bytes = kBlockBytes;
  double port_bytes_per_cycle = 32.0;
  Tick hit_latency = 12;
};

class L2Bank {
 public:
  /// `clock`, when given, sets the port's floor (see SharedLink).
  L2Bank(std::string name, const L2BankConfig& config,
         const sim::Simulator* clock = nullptr);

  /// Tag lookup + port occupancy for one block. Returns {completion tick of
  /// the bank's part, hit?}. On a miss the caller forwards to a memory
  /// controller and the block is installed (allocate-on-miss, LRU victim).
  struct AccessResult {
    Tick bank_done;
    bool hit;
  };
  AccessResult access(Tick ready_at, Addr addr, bool is_write);

  /// Serve a BiN-pinned block: unconditional hit, port occupancy only.
  Tick access_pinned(Tick ready_at);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }
  std::uint64_t accesses() const { return hits_ + misses_; }
  /// Fraction of `elapsed` cycles the bank's port was busy.
  double utilization(Tick elapsed) const { return port_.utilization(elapsed); }
  const std::string& name() const { return port_.name(); }
  const L2BankConfig& config() const { return config_; }

  /// Drop all cached blocks (used between independent experiment runs).
  void flush();

 private:
  struct Way {
    Addr tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  // last-use stamp
  };

  std::size_t set_index(Addr block_addr) const {
    return static_cast<std::size_t>(block_addr) % num_sets_;
  }

  L2BankConfig config_;
  std::size_t num_sets_;
  std::vector<Way> ways_;  // num_sets_ * associativity, row-major by set
  sim::SharedLink port_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stamp_ = 0;
};

}  // namespace ara::mem
