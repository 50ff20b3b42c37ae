// BinAllocator: a Buffer-in-NUCA–style allocator (paper Sec. 7 / BiN [7]):
// accelerator buffers are pinned into the shared NUCA L2 banks so streaming
// DMA is served on chip instead of thrashing to DRAM, with a per-bank
// capacity budget so pinned buffers cannot monopolize a bank.
//
// The allocator hands out pin reservations block-by-block across the banks
// that own each address (the same interleaving the tag path uses), tracks
// per-bank budgets, and releases reservations on free. MemorySystem
// consults it on every access: a pinned block is an unconditional hit at
// its bank.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace ara::mem {

struct BinConfig {
  /// Fraction of each bank's capacity available for pinned buffers.
  double max_pinned_fraction = 0.5;
};

class BinAllocator {
 public:
  /// `bank_capacities[i]` = bytes of bank i.
  BinAllocator(const BinConfig& config, std::vector<Bytes> bank_capacities);

  /// Try to pin every block of [addr, addr+bytes). Blocks whose owning
  /// bank is out of budget stay unpinned. Returns the bytes pinned.
  Bytes pin_range(Addr addr, Bytes bytes);

  /// Release every pinned block of [addr, addr+bytes).
  void unpin_range(Addr addr, Bytes bytes);

  /// Is the block containing `addr` pinned?
  bool is_pinned(Addr addr) const;

  Bytes total_pinned_bytes() const;
  std::uint64_t pin_rejections() const { return rejections_; }

 private:
  std::size_t bank_of(Addr block_addr) const {
    return static_cast<std::size_t>(block_addr) % pinned_per_bank_.size();
  }

  BinConfig config_;
  std::vector<Bytes> budget_blocks_;     // per bank
  std::vector<Bytes> pinned_per_bank_;   // blocks currently pinned
  std::unordered_set<Addr> pinned_;      // block addresses
  std::uint64_t rejections_ = 0;
};

}  // namespace ara::mem
