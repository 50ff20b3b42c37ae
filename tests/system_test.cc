// Integration tests: the assembled System running workloads end to end.
#include <gtest/gtest.h>

#include "common/config_error.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "workloads/registry.h"

namespace ara::core {
namespace {

RunResult sim_point(const ArchConfig& cfg, const workloads::Workload& w) {
  return dse::run(dse::SweepRequest{}.add(cfg, w)).front().result;
}

workloads::Workload tiny(const std::string& name = "Denoise") {
  auto w = workloads::make_benchmark(name, 0.1);
  return w;
}

TEST(ArchConfig, ValidatesDivisibility) {
  ArchConfig c = ArchConfig::paper_baseline(7);  // 120 % 7 != 0
  EXPECT_THROW(c.validate(), ConfigError);
  EXPECT_NO_THROW(ArchConfig::paper_baseline(6).validate());
}

TEST(ArchConfig, PaperConfigsWellFormed) {
  for (std::uint32_t islands : dse::paper_island_counts()) {
    EXPECT_NO_THROW(ArchConfig::paper_baseline(islands).validate());
  }
  const ArchConfig best = ArchConfig::best_config();
  EXPECT_NO_THROW(best.validate());
  EXPECT_EQ(best.num_islands, 24u);
  EXPECT_EQ(best.island.net.num_rings, 2u);
  EXPECT_EQ(best.island.net.link_bytes, 32u);
  EXPECT_FALSE(best.island.spm_sharing);
  EXPECT_EQ(best.island.spm_port_multiplier, 1u);
}

TEST(ArchConfig, SummaryMentionsKeyKnobs) {
  const std::string s = ArchConfig::best_config().summary();
  EXPECT_NE(s.find("24 islands"), std::string::npos);
  EXPECT_NE(s.find("ring"), std::string::npos);
}

TEST(System, BuildsPaperTopology) {
  System sys(ArchConfig::paper_baseline(12));
  EXPECT_EQ(sys.island_count(), 12u);
  // 120 ABBs distributed 10 per island, paper mix overall.
  std::uint32_t total = 0, poly = 0;
  for (IslandId i = 0; i < sys.island_count(); ++i) {
    total += sys.island(i).num_abbs();
    for (abb::AbbKind k : sys.island_abbs(i)) {
      if (k == abb::AbbKind::kPoly) ++poly;
    }
  }
  EXPECT_EQ(total, 120u);
  EXPECT_EQ(poly, 78u);
}

TEST(System, DistinctComponentPlacement) {
  System sys(ArchConfig::paper_baseline(24));
  std::set<NodeId> nodes;
  for (IslandId i = 0; i < sys.island_count(); ++i) {
    EXPECT_TRUE(nodes.insert(sys.island_node(i)).second);
  }
  EXPECT_TRUE(nodes.insert(sys.gam_node()).second);
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_TRUE(nodes.insert(sys.core_node(c)).second);
  }
}

TEST(System, RunCompletesAllJobs) {
  System sys(ArchConfig::best_config());
  const auto w = tiny();
  const RunResult r = sys.run(w);
  EXPECT_EQ(r.jobs, w.invocations);
  EXPECT_GT(r.makespan, 0u);
  EXPECT_GT(r.performance(), 0.0);
}

TEST(System, ResultInvariants) {
  System sys(ArchConfig::ring_design(6, 2, 32));
  const RunResult r = sys.run(tiny("EKF-SLAM"));
  EXPECT_GT(r.energy.total(), 0.0);
  EXPECT_GT(r.energy.abb_j, 0.0);
  EXPECT_GT(r.energy.noc_j, 0.0);
  EXPECT_GT(r.energy.platform_j, 0.0);
  EXPECT_GT(r.area.total(), r.area.islands_mm2);
  EXPECT_GE(r.avg_abb_utilization, 0.0);
  EXPECT_LE(r.avg_abb_utilization, 1.0);
  EXPECT_GE(r.peak_abb_utilization, r.avg_abb_utilization);
  EXPECT_GE(r.l2_hit_rate, 0.0);
  EXPECT_LE(r.l2_hit_rate, 1.0);
  EXPECT_GT(r.chains_direct + r.chains_spilled, 0u);
  EXPECT_GT(r.job_latency_mean, 0.0);
  EXPECT_GE(r.job_latency_p95, r.job_latency_p50);
  EXPECT_GE(r.job_latency_max, r.job_latency_p95 / 2);  // bucket granular
  EXPECT_LE(r.job_latency_max, r.makespan);
}

TEST(System, DeterministicAcrossRuns) {
  const auto w = tiny("Segmentation");
  System a(ArchConfig::best_config());
  System b(ArchConfig::best_config());
  const RunResult ra = a.run(w);
  const RunResult rb = b.run(w);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.chains_direct, rb.chains_direct);
  EXPECT_DOUBLE_EQ(ra.energy.total(), rb.energy.total());
}

TEST(System, ChainsAreDirectUnderAtomicComposition) {
  System sys(ArchConfig::best_config());
  const auto w = tiny("EKF-SLAM");
  const RunResult r = sys.run(w);
  EXPECT_EQ(r.chains_spilled, 0u);
  EXPECT_EQ(r.chains_direct, w.dfg.chain_edges() * w.invocations);
}

TEST(System, MonolithicModeRuns) {
  ArchConfig cfg = ArchConfig::ring_design(6, 2, 32);
  cfg.mode = abc::ExecutionMode::kMonolithic;
  System sys(cfg);
  const RunResult r = sys.run(tiny("Deblur"));
  EXPECT_EQ(r.jobs, tiny("Deblur").invocations);
  EXPECT_GT(r.energy.mono_j, 0.0);
  EXPECT_GT(r.avg_abb_utilization, 0.0);
}

TEST(System, MoreIslandsFasterForLowChaining) {
  const auto w = tiny("Denoise");
  const RunResult few = sim_point(ArchConfig::paper_baseline(3), w);
  const RunResult many = sim_point(ArchConfig::paper_baseline(24), w);
  EXPECT_GT(many.performance(), few.performance());
}

TEST(System, RingBeatsProxyXbarForChainingHeavyAt3Islands) {
  const auto w = tiny("Segmentation");
  const RunResult xbar = sim_point(ArchConfig::paper_baseline(3), w);
  const RunResult ring = sim_point(ArchConfig::ring_design(3, 2, 32), w);
  EXPECT_GT(ring.performance(), 1.2 * xbar.performance());
}

TEST(System, FabricConfigRunsOutOfDomainKernels) {
  ArchConfig cfg = ArchConfig::ring_design(6, 2, 32);
  cfg.island.fabric_blocks = 2;
  System sys(cfg);
  workloads::DfgGenParams p;
  p.tasks = 8;
  p.fabric_fraction = 0.25;
  p.seed = 42;
  workloads::Workload w;
  w.name = "exotic";
  w.dfg = workloads::generate_dfg(w.name, p);
  w.invocations = 10;
  w.concurrency = 4;
  const RunResult r = sys.run(w);
  EXPECT_EQ(r.jobs, 10u);
}

TEST(System, GamWaitFeedbackUnderPressure) {
  ArchConfig cfg = ArchConfig::best_config();
  cfg.max_jobs_in_flight = 2;
  System sys(cfg);
  auto w = tiny();
  w.concurrency = 16;
  sys.run(w);
  EXPECT_GT(sys.gam().queued_requests(), 0u);
  EXPECT_EQ(sys.gam().interrupts_delivered(), w.invocations);
}

TEST(System, EnergyBreakdownSumsToTotal) {
  System sys(ArchConfig::best_config());
  const RunResult r = sys.run(tiny());
  const auto& e = r.energy;
  const double parts = e.abb_j + e.spm_j + e.abb_spm_xbar_j +
                       e.island_net_j + e.dma_j + e.noc_j + e.l2_j +
                       e.dram_j + e.mono_j + e.leakage_j + e.platform_j;
  EXPECT_NEAR(e.total(), parts, 1e-15);
}

TEST(System, RunResultPrintIsWellFormed) {
  System sys(ArchConfig::best_config());
  const RunResult r = sys.run(tiny());
  std::ostringstream os;
  r.print(os);
  EXPECT_NE(os.str().find("makespan"), std::string::npos);
  EXPECT_NE(os.str().find("Denoise"), std::string::npos);
}

}  // namespace
}  // namespace ara::core
