// Tests for the out-of-domain (CAMEL) workload suite and the Orion router
// energy decomposition.
#include <gtest/gtest.h>

#include "common/config_error.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "power/orion_like.h"
#include "workloads/registry.h"

namespace ara {
namespace {

TEST(OutOfDomain, SuiteHasThreeMembers) {
  const auto& names = workloads::out_of_domain_names();
  ASSERT_EQ(names.size(), 3u);
  for (const auto& n : names) {
    const auto w = workloads::make_benchmark(n, 0.1);
    EXPECT_EQ(w.name, n);
    EXPECT_TRUE(w.dfg.finalized());
  }
}

TEST(OutOfDomain, EveryMemberNeedsFabric) {
  for (const auto& n : workloads::out_of_domain_names()) {
    const auto w = workloads::make_benchmark(n, 0.1);
    std::size_t fabric = 0;
    for (const auto& node : w.dfg.nodes()) fabric += node.needs_fabric;
    EXPECT_GT(fabric, 0u) << n;
  }
}

TEST(OutOfDomain, ReachableThroughRegistry) {
  const auto w = workloads::make_benchmark("BlackScholes", 0.1);
  EXPECT_EQ(w.name, "BlackScholes");
}

TEST(OutOfDomain, PureCharmCannotComposeCamelCan) {
  auto w = workloads::make_benchmark("LPCIP", 0.03);
  w.concurrency = 4;

  // Pure CHARM: no fabric blocks — fabric tasks can never be placed, the
  // job falls to the per-task path and would deadlock-check; the system
  // refuses cleanly.
  core::ArchConfig charm = core::ArchConfig::ring_design(6, 2, 32);
  {
    core::System sys(charm);
    EXPECT_THROW(sys.run(w), ConfigError);
  }

  // CAMEL: fabric blocks present — runs to completion.
  core::ArchConfig camel = charm;
  camel.island.fabric_blocks = 1;
  core::System sys(camel);
  const auto r = sys.run(w);
  EXPECT_EQ(r.jobs, w.invocations);
  // Fabric engines actually did work.
  std::uint64_t fabric_tasks = 0;
  for (IslandId i = 0; i < sys.island_count(); ++i) {
    auto& isl = sys.island(i);
    for (AbbId a = 0; a < isl.num_abbs(); ++a) {
      if (isl.engine(a).is_fabric()) {
        fabric_tasks += isl.engine(a).tasks_executed();
      }
    }
  }
  EXPECT_GT(fabric_tasks, 0u);
}

TEST(OrionBreakdown, ComponentsSumToHeadlineConstant) {
  const power::NocEnergyBreakdownPj b;
  EXPECT_DOUBLE_EQ(b.total(), power::kNocPjPerByteHop);
  EXPECT_GT(b.buffer_write, 0.0);
  EXPECT_GT(b.buffer_read, 0.0);
  EXPECT_GT(b.crossbar, 0.0);
  EXPECT_GT(b.arbitration, 0.0);
  EXPECT_GT(b.link, 0.0);
}

TEST(OrionBreakdown, LinkAndCrossbarDominate) {
  // Orion's characteristic split: datapath (link + crossbar) outweighs
  // control (arbitration).
  const power::NocEnergyBreakdownPj b;
  EXPECT_GT(b.link + b.crossbar, b.arbitration * 4);
}

}  // namespace
}  // namespace ara
