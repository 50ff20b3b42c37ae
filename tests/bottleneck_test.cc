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

/// The report's row for `resource`, or nullptr when the design lacks it.
const dse::SystemReport::ResourceUse* class_use(
    const dse::SystemReport& report, dse::Resource resource) {
  for (const auto& c : report.resources()) {
    if (c.resource == resource) return &c;
  }
  return nullptr;
}

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
  const auto* l2 = class_use(report, dse::Resource::kL2Port);
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->peak_utilization, busiest);
}

TEST(Bottleneck, MeshLinkClassIsEveryInterRouterPort) {
  // Each output port toward a neighbouring router is one instance; local
  // (ejection) ports are not, so the mean is not the peak.
  core::System sys(core::ArchConfig::ring_design(3, 2, 32));
  auto w = workloads::make_benchmark("EKF-SLAM", 0.1);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);

  const auto& mesh = sys.mesh();
  double peak = 0, sum = 0;
  std::size_t links = 0;
  struct Step {
    noc::Direction dir;
    int dx, dy;
  };
  for (NodeId n = 0; n < mesh.node_count(); ++n) {
    for (const Step s : {Step{noc::Direction::kEast, 1, 0},
                         Step{noc::Direction::kWest, -1, 0},
                         Step{noc::Direction::kNorth, 0, -1},
                         Step{noc::Direction::kSouth, 0, 1}}) {
      const int x = static_cast<int>(mesh.x_of(n)) + s.dx;
      const int y = static_cast<int>(mesh.y_of(n)) + s.dy;
      if (x < 0 || y < 0 || x >= static_cast<int>(mesh.width()) ||
          y >= static_cast<int>(mesh.height())) {
        continue;
      }
      const double u = mesh.router(n).port(s.dir).utilization(r.makespan);
      peak = std::max(peak, u);
      sum += u;
      ++links;
    }
  }
  ASSERT_EQ(links, 2u * 2u * 8u * 7u);  // 8x8 mesh, both directions
  const auto* noc = class_use(report, dse::Resource::kNocLinks);
  ASSERT_NE(noc, nullptr);
  EXPECT_DOUBLE_EQ(noc->peak_utilization, peak);
  EXPECT_NEAR(noc->mean_utilization, sum / static_cast<double>(links), 1e-12);
  EXPECT_LT(noc->mean_utilization, noc->peak_utilization);
  EXPECT_LE(noc->peak_utilization, r.noc_peak_link_utilization);

  // The report prints the class once, in the resource table.
  std::ostringstream os;
  report.print(os);
  EXPECT_EQ(os.str().find("NoC peak link utilization"), std::string::npos);
}

TEST(Bottleneck, AbbComputeMeanIsOverEveryAbb) {
  // Each ABB is one instance: the mean is the chip's mean ABB utilization
  // (the per-island "ABB avg" column weighted by block count), not a mean
  // of per-island peaks.
  core::System sys(core::ArchConfig::paper_baseline(24));
  auto w = workloads::make_benchmark("Deblur", 0.05);
  const auto r = sys.run(w);
  const dse::SystemReport report(sys, r);

  double peak = 0, sum = 0, peak_sum = 0;
  std::size_t abbs = 0;
  for (IslandId i = 0; i < sys.island_count(); ++i) {
    const auto& isl = sys.island(i);
    peak = std::max(peak, isl.peak_abb_utilization(r.makespan));
    peak_sum += isl.peak_abb_utilization(r.makespan);
    sum += isl.avg_abb_utilization(r.makespan) * isl.num_abbs();
    abbs += isl.num_abbs();
  }
  ASSERT_EQ(abbs, 120u);
  const auto* abb = class_use(report, dse::Resource::kAbbCompute);
  ASSERT_NE(abb, nullptr);
  EXPECT_DOUBLE_EQ(abb->peak_utilization, peak);
  EXPECT_NEAR(abb->mean_utilization, sum / static_cast<double>(abbs), 1e-12);
  EXPECT_LT(abb->mean_utilization,
            peak_sum / static_cast<double>(sys.island_count()));
}

}  // namespace
}  // namespace ara
