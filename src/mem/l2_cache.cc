#include "mem/l2_cache.h"

#include <utility>

#include "common/config_error.h"

namespace ara::mem {

L2Bank::L2Bank(std::string name, const L2BankConfig& config,
               const sim::Simulator* clock)
    : config_(config),
      num_sets_(0),
      port_(std::move(name), config.port_bytes_per_cycle, config.hit_latency,
            clock) {
  config_check(config.block_bytes > 0, "L2 block size must be positive");
  config_check(config.associativity > 0, "L2 associativity must be positive");
  const Bytes blocks = config.capacity / config.block_bytes;
  config_check(blocks >= config.associativity,
               "L2 bank too small for its associativity");
  num_sets_ = static_cast<std::size_t>(blocks / config.associativity);
  ways_.assign(num_sets_ * config.associativity, Way{});
}

L2Bank::AccessResult L2Bank::access(Tick ready_at, Addr addr, bool is_write) {
  const Addr block_addr = addr / config_.block_bytes;
  const std::size_t set = set_index(block_addr);
  Way* base = &ways_[set * config_.associativity];
  ++stamp_;

  Way* victim = base;
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == block_addr) {
      way.lru = stamp_;
      ++hits_;
      return {port_.submit(ready_at, config_.block_bytes), true};
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }

  // Miss: install (allocate on both reads and writes; DMA writes are
  // streaming stores that the BiN-style buffering keeps on chip).
  victim->valid = true;
  victim->tag = block_addr;
  victim->lru = stamp_;
  ++misses_;
  (void)is_write;
  return {port_.submit(ready_at, config_.block_bytes), false};
}

Tick L2Bank::access_pinned(Tick ready_at) {
  ++hits_;
  return port_.submit(ready_at, config_.block_bytes);
}

void L2Bank::flush() {
  for (auto& way : ways_) way = Way{};
}

}  // namespace ara::mem
