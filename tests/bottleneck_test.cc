// Tests for the binding-resource verdict of dse::SystemReport — including
// the paper's Sec. 5.5 claims as executable assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/arch_config.h"
#include "core/system.h"
#include "dse/report.h"
#include "workloads/registry.h"

namespace ara {
namespace {

TEST(Bottleneck, ProxyHubBindsChainingHeavyAt3Islands) {
  // Sec. 5.5: chaining through the proxy crossbar serializes on the DMA
  // hub for large islands.
  core::System sys(core::ArchConfig::paper_baseline(3));
  auto w = workloads::make_benchmark("EKF-SLAM", 0.25);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);
  EXPECT_EQ(report.binding().resource, dse::Resource::kIslandNetHub);
  EXPECT_GT(report.binding().peak_utilization, 0.7);
}

TEST(Bottleneck, RingRelievesHubThenNocBinds) {
  // With rings, the island network stops binding and the chip-level
  // interconnect (NoC links / island interfaces) takes over — the paper's
  // "the link connecting the ABB island to the rest of the system has
  // been fully utilized".
  core::System sys(core::ArchConfig::ring_design(3, 2, 32));
  auto w = workloads::make_benchmark("EKF-SLAM", 0.25);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);
  const dse::Resource binding = report.binding().resource;
  EXPECT_TRUE(binding == dse::Resource::kNocLinks ||
              binding == dse::Resource::kNocInterface)
      << dse::resource_name(binding);
  EXPECT_GT(report.binding().peak_utilization, 0.7);
}

TEST(Bottleneck, EntriesSortedAndComplete) {
  core::System sys(core::ArchConfig::ring_design(6, 2, 32));
  auto w = workloads::make_benchmark("Denoise", 0.1);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);
  const auto& classes = report.resources();
  ASSERT_GE(classes.size(), 6u);
  for (std::size_t i = 1; i < classes.size(); ++i) {
    EXPECT_GE(classes[i - 1].peak_utilization, classes[i].peak_utilization);
  }
  // Ring configs report ring links, not a hub.
  bool has_ring = false, has_hub = false;
  for (const auto& c : classes) {
    has_ring |= c.resource == dse::Resource::kIslandNetRing;
    has_hub |= c.resource == dse::Resource::kIslandNetHub;
  }
  EXPECT_TRUE(has_ring);
  EXPECT_FALSE(has_hub);
}

TEST(Bottleneck, PrintsReadableReport) {
  core::System sys(core::ArchConfig::ring_design(6, 2, 32));
  auto w = workloads::make_benchmark("Deblur", 0.05);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("binding resource:"), std::string::npos);
}

TEST(Bottleneck, ResourceNamesStable) {
  EXPECT_STREQ(dse::resource_name(dse::Resource::kNocInterface),
               "island NoC interface");
  EXPECT_STREQ(dse::resource_name(dse::Resource::kMemoryController),
               "memory controller");
}

TEST(Bottleneck, L2PortClassReadsTheBankPorts) {
  // A 64 B/cycle port serves a 64-byte block in one cycle, where an
  // estimate of 2 cycles per access would read twice the bank's busy time.
  auto cfg = core::ArchConfig::paper_baseline(3);
  cfg.mem.l2.port_bytes_per_cycle = 64;
  core::System sys(cfg);
  auto w = workloads::make_benchmark("Denoise", 0.05);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);

  const auto& mem = sys.memory();
  double busiest = 0;
  for (std::size_t b = 0; b < mem.l2_bank_count(); ++b) {
    busiest = std::max(busiest, mem.l2_bank(b).utilization(r.makespan));
  }
  ASSERT_GT(busiest, 0.0);
  const auto& classes = report.resources();
  const auto l2 = std::find_if(classes.begin(), classes.end(),
                               [](const dse::SystemReport::ResourceUse& c) {
                                 return c.resource == dse::Resource::kL2Port;
                               });
  ASSERT_NE(l2, classes.end());
  EXPECT_EQ(l2->peak_utilization, busiest);
}

}  // namespace
}  // namespace ara
