// Tests for the per-island DMA TLB and the BiN L2 buffer allocator.
#include <gtest/gtest.h>

#include "common/config_error.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "island/tlb.h"
#include "mem/bin_allocator.h"
#include "workloads/registry.h"

namespace ara {
namespace {

// ---- TLB ----

TEST(Tlb, HitsAfterFirstTouch) {
  island::TlbConfig cfg;
  cfg.page_bytes = 4096;
  island::Tlb tlb("t", cfg);
  EXPECT_EQ(tlb.translate(0, 0x1000), 0u + cfg.walk_latency);  // cold miss
  EXPECT_EQ(tlb.translate(200, 0x1800), 200u);                 // same page
  EXPECT_DOUBLE_EQ(tlb.hit_rate(), 0.5);
}

TEST(Tlb, RangeWalksEachNewPage) {
  island::TlbConfig cfg;
  cfg.page_bytes = 4096;
  island::Tlb tlb("t", cfg);
  // 3 pages cold: 3 walks.
  const Tick t = tlb.translate_range(0, 0, 3 * cfg.page_bytes);
  EXPECT_EQ(t, 3 * cfg.walk_latency);
  // Re-walk: all hits.
  EXPECT_EQ(tlb.translate_range(t, 0, 3 * cfg.page_bytes), t);
}

TEST(Tlb, LruEvictionOnOverflow) {
  island::TlbConfig cfg;
  cfg.page_bytes = 4096;
  cfg.entries = 2;
  island::Tlb tlb("t", cfg);
  tlb.translate(0, 0 * cfg.page_bytes);
  tlb.translate(0, 1 * cfg.page_bytes);
  tlb.translate(0, 0 * cfg.page_bytes);  // refresh page 0
  tlb.translate(0, 2 * cfg.page_bytes);  // evicts page 1
  const auto misses_before = tlb.misses();
  tlb.translate(0, 0 * cfg.page_bytes);  // hit
  EXPECT_EQ(tlb.misses(), misses_before);
  tlb.translate(0, 1 * cfg.page_bytes);  // miss (evicted)
  EXPECT_EQ(tlb.misses(), misses_before + 1);
}

TEST(Tlb, FlushForgets) {
  island::Tlb tlb("t", {});
  tlb.translate(0, 0x4000);
  tlb.flush();
  const auto misses = tlb.misses();
  tlb.translate(0, 0x4000);
  EXPECT_EQ(tlb.misses(), misses + 1);
}

TEST(Tlb, RejectsBadConfig) {
  island::TlbConfig cfg;
  cfg.entries = 0;
  EXPECT_THROW(island::Tlb("bad", cfg), ConfigError);
}

TEST(Tlb, DisabledIslandSkipsTranslation) {
  core::ArchConfig cfg = core::ArchConfig::ring_design(6, 2, 32);
  cfg.island.tlb_enabled = false;
  core::System sys(cfg);
  auto w = workloads::make_benchmark("Denoise", 0.05);
  sys.run(w);
  EXPECT_EQ(sys.island(0).tlb().hits() + sys.island(0).tlb().misses(), 0u);
}

TEST(Tlb, EnabledIslandTranslates) {
  core::System sys(core::ArchConfig::ring_design(3, 2, 32));
  auto w = workloads::make_benchmark("Denoise", 0.3);
  sys.run(w);
  EXPECT_GT(sys.island(0).tlb().hits() + sys.island(0).tlb().misses(), 0u);
}

TEST(Tlb, HugePagesRescueStreamingHitRate) {
  // With 4 KB pages a 32-entry TLB covers 128 KB — far less than the
  // streaming working set, so it thrashes. 2 MB pages cover the whole
  // buffer rotation; this is why accelerator DMA favours huge pages.
  auto w = workloads::make_benchmark("Denoise", 0.3);
  core::ArchConfig small_pages = core::ArchConfig::ring_design(3, 2, 32);
  small_pages.island.tlb.page_bytes = 4096;
  core::ArchConfig huge_pages = core::ArchConfig::ring_design(3, 2, 32);
  core::System sys_small(small_pages);
  core::System sys_huge(huge_pages);
  sys_small.run(w);
  sys_huge.run(w);
  EXPECT_LT(sys_small.island(0).tlb().hit_rate(), 0.5);
  EXPECT_GT(sys_huge.island(0).tlb().hit_rate(), 0.9);
}

// ---- BiN ----

TEST(BinAllocator, PinsWithinBudget) {
  mem::BinConfig cfg;
  cfg.max_pinned_fraction = 0.5;
  // 4 banks x 16 blocks; budget 8 blocks per bank.
  mem::BinAllocator bin(cfg, std::vector<Bytes>(4, 16 * kBlockBytes));
  const Bytes pinned = bin.pin_range(0, 16 * kBlockBytes);
  EXPECT_EQ(pinned, 16 * kBlockBytes);  // 4 blocks per bank, within budget
  EXPECT_TRUE(bin.is_pinned(0));
  EXPECT_TRUE(bin.is_pinned(15 * kBlockBytes));
  EXPECT_FALSE(bin.is_pinned(16 * kBlockBytes));
}

TEST(BinAllocator, RejectsBeyondBudget) {
  mem::BinConfig cfg;
  cfg.max_pinned_fraction = 0.25;  // 1 block budget per 4-block bank
  mem::BinAllocator bin(cfg, std::vector<Bytes>(2, 4 * kBlockBytes));
  const Bytes pinned = bin.pin_range(0, 8 * kBlockBytes);
  EXPECT_EQ(pinned, 2 * kBlockBytes);  // one per bank
  EXPECT_GT(bin.pin_rejections(), 0u);
}

TEST(BinAllocator, UnpinReleasesBudget) {
  mem::BinConfig cfg;
  cfg.max_pinned_fraction = 0.25;
  mem::BinAllocator bin(cfg, std::vector<Bytes>(1, 4 * kBlockBytes));
  EXPECT_EQ(bin.pin_range(0, kBlockBytes), kBlockBytes);
  EXPECT_EQ(bin.pin_range(kBlockBytes, kBlockBytes), 0u);  // budget full
  bin.unpin_range(0, kBlockBytes);
  EXPECT_EQ(bin.pin_range(kBlockBytes, kBlockBytes), kBlockBytes);
  EXPECT_EQ(bin.total_pinned_bytes(), kBlockBytes);
}

TEST(BinAllocator, PinningImprovesHitRateEndToEnd) {
  auto w = workloads::make_benchmark("Deblur", 0.05);
  core::ArchConfig off = core::ArchConfig::best_config();
  core::ArchConfig on = off;
  on.mem.bin_pinning = true;
  core::System sys_off(off);
  core::System sys_on(on);
  const auto r_off = sys_off.run(w);
  const auto r_on = sys_on.run(w);
  EXPECT_GT(sys_on.memory().bin().total_pinned_bytes(), 0u);
  EXPECT_GE(r_on.l2_hit_rate, r_off.l2_hit_rate);
  EXPECT_LE(r_on.dram_bytes, r_off.dram_bytes);
}

TEST(BinAllocator, RejectsBadConfig) {
  mem::BinConfig cfg;
  cfg.max_pinned_fraction = 0.0;
  EXPECT_THROW(mem::BinAllocator(cfg, {64 * kBlockBytes}), ConfigError);
  EXPECT_THROW(mem::BinAllocator(mem::BinConfig{}, {}), ConfigError);
}

}  // namespace
}  // namespace ara
