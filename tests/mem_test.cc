// Unit tests for the memory system: controllers, L2 banks, MemorySystem.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/config_error.h"
#include "mem/l2_cache.h"
#include "mem/memory_controller.h"
#include "mem/memory_system.h"
#include "noc/mesh.h"
#include "sim/rng.h"
#include "sim/shared_link.h"

namespace ara::mem {
namespace {

TEST(MemoryController, LatencyPlusBandwidth) {
  MemoryControllerConfig c;
  c.bandwidth_bytes_per_cycle = 10;
  c.avg_latency = 180;
  MemoryController mc("mc", c);
  // 64B: ceil(64/10)=7 occupancy + 180 latency.
  EXPECT_EQ(mc.access(0, 64), 187u);
  EXPECT_EQ(mc.total_bytes(), 64u);
  EXPECT_EQ(mc.accesses(), 1u);
}

TEST(MemoryController, ChannelSerializes) {
  MemoryController mc("mc", {});
  const Tick t1 = mc.access(0, 640);
  const Tick t2 = mc.access(0, 640);
  EXPECT_EQ(t2 - t1, 64u);  // second occupies after the first
}

L2BankConfig small_l2() {
  L2BankConfig c;
  c.capacity = 8 * 1024;  // 128 blocks
  c.associativity = 4;
  return c;
}

TEST(L2Bank, MissThenHit) {
  L2Bank bank("l2", small_l2());
  auto miss = bank.access(0, 0x1000, false);
  EXPECT_FALSE(miss.hit);
  auto hit = bank.access(miss.bank_done, 0x1000, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(bank.hits(), 1u);
  EXPECT_EQ(bank.misses(), 1u);
  EXPECT_DOUBLE_EQ(bank.hit_rate(), 0.5);
}

TEST(L2Bank, SameBlockDifferentOffsetsHit) {
  L2Bank bank("l2", small_l2());
  bank.access(0, 0x1000, false);
  EXPECT_TRUE(bank.access(0, 0x1004, false).hit);
  EXPECT_TRUE(bank.access(0, 0x103F, true).hit);
}

TEST(L2Bank, LruEvictsOldest) {
  L2BankConfig c = small_l2();
  L2Bank bank("l2", c);
  const std::size_t sets = (c.capacity / c.block_bytes) / c.associativity;
  // Fill one set (4 ways), then touch way 0 to refresh it, then insert a
  // 5th conflicting block: the eviction victim must not be way 0.
  auto addr_in_set = [&](std::uint64_t i) {
    return (i * sets) * c.block_bytes;  // all map to set 0
  };
  for (std::uint64_t i = 0; i < 4; ++i) bank.access(0, addr_in_set(i), false);
  bank.access(0, addr_in_set(0), false);      // refresh LRU of block 0
  bank.access(0, addr_in_set(4), false);      // evicts block 1
  EXPECT_TRUE(bank.access(0, addr_in_set(0), false).hit);
  EXPECT_FALSE(bank.access(0, addr_in_set(1), false).hit);
}

TEST(L2Bank, FlushDropsEverything) {
  L2Bank bank("l2", small_l2());
  bank.access(0, 0x2000, false);
  bank.flush();
  EXPECT_FALSE(bank.access(0, 0x2000, false).hit);
}

// Random block addresses through a 4-set, 4-way bank, checked access by
// access against a per-set recency list (most recent first). The bank's
// port is modelled as a link of the same bandwidth and latency, and one
// flush mid-stream empties every list.
TEST(L2Bank, MatchesLruModel) {
  L2BankConfig c = small_l2();
  c.capacity = 16 * c.block_bytes;  // 4 sets of 4 ways
  L2Bank bank("l2", c);
  const std::size_t sets = (c.capacity / c.block_bytes) / c.associativity;
  std::vector<std::vector<Addr>> recency(sets);
  sim::SharedLink port("model", c.port_bytes_per_cycle, c.hit_latency);
  sim::Rng rng(17);
  std::uint64_t hits = 0, misses = 0;
  Tick now = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i == 2000) {
      bank.flush();
      for (auto& list : recency) list.clear();
    }
    now += rng.next_below(8);
    const Addr block = rng.next_below(40);  // 10 blocks per set
    const Addr addr = block * c.block_bytes + rng.next_below(c.block_bytes);
    auto& list = recency[block % sets];
    const auto pos = std::find(list.begin(), list.end(), block);
    const bool want_hit = pos != list.end();
    if (want_hit) {
      list.erase(pos);
      ++hits;
    } else {
      if (list.size() == c.associativity) list.pop_back();  // evict LRU
      ++misses;
    }
    list.insert(list.begin(), block);

    const auto got = bank.access(now, addr, rng.next_below(4) == 0);
    ASSERT_EQ(got.hit, want_hit) << "access " << i << " to block " << block;
    ASSERT_EQ(got.bank_done, port.submit(now, c.block_bytes))
        << "access " << i;
    ASSERT_EQ(bank.hits(), hits);
    ASSERT_EQ(bank.misses(), misses);
  }
  EXPECT_GT(hits, 500u);
  EXPECT_GT(misses, 500u);
}

TEST(L2Bank, RejectsBadConfig) {
  L2BankConfig c = small_l2();
  c.associativity = 0;
  EXPECT_THROW(L2Bank("bad", c), ConfigError);
  c = small_l2();
  c.capacity = 64;  // one block < associativity 4
  EXPECT_THROW(L2Bank("bad", c), ConfigError);
}

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest() : mesh_(noc::MeshConfig{}) {
    MemorySystemConfig cfg;
    std::vector<NodeId> l2_nodes, mc_nodes;
    for (std::uint32_t i = 0; i < cfg.num_l2_banks; ++i) {
      l2_nodes.push_back(mesh_.node_at(2, i % 8));
    }
    for (std::uint32_t i = 0; i < cfg.num_memory_controllers; ++i) {
      mc_nodes.push_back(mesh_.node_at(0, i));
    }
    mem_ = std::make_unique<MemorySystem>(mesh_, cfg, l2_nodes, mc_nodes);
  }
  noc::Mesh mesh_;
  std::unique_ptr<MemorySystem> mem_;
};

TEST_F(MemorySystemTest, AllocateIsBlockAlignedAndDisjoint) {
  const Addr a = mem_->allocate(100);
  const Addr b = mem_->allocate(1);
  EXPECT_EQ(a % kBlockBytes, 0u);
  EXPECT_EQ(b % kBlockBytes, 0u);
  EXPECT_GE(b, a + 100);
}

TEST_F(MemorySystemTest, ColdReadMissesWarmReadHits) {
  const Addr a = mem_->allocate(4096);
  const Tick t1 = mem_->read(0, 5, a, 4096);
  EXPECT_DOUBLE_EQ(mem_->l2_hit_rate(), 0.0);
  EXPECT_GT(mem_->dram_bytes(), 0u);
  const Bytes dram_before = mem_->dram_bytes();
  const Tick t2 = mem_->read(t1, 5, a, 4096);
  EXPECT_GT(mem_->l2_hit_rate(), 0.45);
  EXPECT_EQ(mem_->dram_bytes(), dram_before);  // all hits, no new DRAM
  EXPECT_LT(t2 - t1, t1);                      // warm read faster
}

TEST_F(MemorySystemTest, InterleavedBlocksFillAllSetsRegression) {
  // Regression for the bank-local indexing bug: a contiguous buffer much
  // smaller than a bank must be fully cache-resident on the second pass.
  const Addr a = mem_->allocate(256 * 1024);
  Tick t = mem_->read(0, 5, a, 256 * 1024);
  const Bytes dram_before = mem_->dram_bytes();
  mem_->read(t, 5, a, 256 * 1024);
  EXPECT_EQ(mem_->dram_bytes(), dram_before);
}

TEST_F(MemorySystemTest, WritesReachDramOnMiss) {
  const Addr a = mem_->allocate(1024);
  mem_->write(0, 5, a, 1024);
  EXPECT_GT(mem_->dram_bytes(), 0u);
  // Second write hits in L2 (write-allocate) and stays on chip.
  const Bytes before = mem_->dram_bytes();
  mem_->write(100000, 5, a, 1024);
  EXPECT_EQ(mem_->dram_bytes(), before);
}

TEST_F(MemorySystemTest, FlushRestoresColdBehaviour) {
  const Addr a = mem_->allocate(512);
  mem_->read(0, 5, a, 512);
  const Bytes before = mem_->dram_bytes();
  mem_->flush_caches();
  mem_->read(100000, 5, a, 512);
  EXPECT_GT(mem_->dram_bytes(), before);
}

TEST_F(MemorySystemTest, TrafficSpreadsOverControllers) {
  // Read a buffer crossing several interleave pages.
  const Addr a = mem_->allocate(64 * 1024);
  mem_->read(0, 5, a, 64 * 1024);
  std::size_t used = 0;
  for (std::size_t i = 0; i < mem_->controller_count(); ++i) {
    if (mem_->controller(i).total_bytes() > 0) ++used;
  }
  EXPECT_EQ(used, mem_->controller_count());
}

TEST_F(MemorySystemTest, ZeroByteOpsAreFree) {
  EXPECT_EQ(mem_->read(42, 5, 0x1000, 0), 42u);
  EXPECT_EQ(mem_->write(42, 5, 0x1000, 0), 42u);
}

TEST(MemorySystemConfigTest, RejectsMismatchedPlacement) {
  noc::Mesh mesh{noc::MeshConfig{}};
  MemorySystemConfig cfg;
  EXPECT_THROW(MemorySystem(mesh, cfg, {0, 1}, {2, 3, 4, 5}), ConfigError);
}

TEST(MemorySystemConfigTest, RejectsZeroControllerInterleave) {
  noc::Mesh mesh{noc::MeshConfig{}};
  MemorySystemConfig cfg;
  cfg.num_l2_banks = 1;
  cfg.mc_interleave = 0;  // the divisor in every controller lookup
  EXPECT_THROW(MemorySystem(mesh, cfg, {0}, {2, 3, 4, 5}), ConfigError);
}

}  // namespace
}  // namespace ara::mem
