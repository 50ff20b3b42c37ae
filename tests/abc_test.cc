// Tests for the runtime: ABC composition, chaining, sharing constraint,
// fallback spilling, monolithic (ARC) mode, the GAM and its admission
// policies.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abc/abc.h"
#include "abc/gam.h"
#include "common/config_error.h"
#include "core/system.h"
#include "dataflow/dfg.h"
#include "island/island.h"
#include "mem/memory_system.h"
#include "noc/mesh.h"
#include "sim/event_queue.h"
#include "workloads/registry.h"

namespace ara::abc {
namespace {

using dataflow::Dfg;
using dataflow::DfgNode;

DfgNode node(abb::AbbKind kind, std::uint64_t elements = 128,
             Bytes mem_in = 512, Bytes mem_out = 0) {
  DfgNode n;
  n.kind = kind;
  n.elements = elements;
  n.mem_in_bytes = mem_in;
  n.mem_out_bytes = mem_out;
  n.chain_in_bytes = elements * 4;
  return n;
}

/// Two-island fixture with a small mixed ABB set per island.
class AbcTest : public ::testing::Test {
 protected:
  AbcTest() : mesh_(noc::MeshConfig{}) {
    mem::MemorySystemConfig mcfg;
    std::vector<NodeId> l2_nodes, mc_nodes;
    for (std::uint32_t i = 0; i < mcfg.num_l2_banks; ++i) {
      l2_nodes.push_back(mesh_.node_at(2, i % 8));
    }
    for (std::uint32_t i = 0; i < mcfg.num_memory_controllers; ++i) {
      mc_nodes.push_back(mesh_.node_at(0, i));
    }
    mem_ = std::make_unique<mem::MemorySystem>(mesh_, mcfg, l2_nodes,
                                               mc_nodes);
  }

  void build(AbcConfig cfg = {}, island::IslandConfig icfg = {},
             std::vector<abb::AbbKind> kinds = {abb::AbbKind::kPoly,
                                                abb::AbbKind::kPoly,
                                                abb::AbbKind::kDivide,
                                                abb::AbbKind::kSqrt}) {
    islands_.push_back(std::make_unique<island::Island>(
        0, mesh_, mesh_.node_at(0, 1), *mem_, icfg, kinds));
    islands_.push_back(std::make_unique<island::Island>(
        1, mesh_, mesh_.node_at(7, 1), *mem_, icfg, kinds));
    std::vector<island::Island*> ptrs;
    for (auto& i : islands_) ptrs.push_back(i.get());
    abc_ = std::make_unique<Abc>(sim_, *mem_, ptrs, cfg);
  }

  JobId run_job(const Dfg* dfg, Tick* done_at = nullptr) {
    Tick done = 0;
    const JobId id = abc_->submit_job(dfg, mem_->allocate(64 * 1024),
                                      mem_->allocate(64 * 1024), 0,
                                      [&](JobId, Tick t) { done = t; });
    sim_.run();
    if (done_at != nullptr) *done_at = done;
    return id;
  }

  sim::Simulator sim_;
  noc::Mesh mesh_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::vector<std::unique_ptr<island::Island>> islands_;
  std::unique_ptr<Abc> abc_;
};

TEST_F(AbcTest, SingleTaskJobCompletes) {
  build();
  Dfg g("one");
  g.add_node(node(abb::AbbKind::kPoly, 128, 2048, 512));
  g.finalize();
  Tick done = 0;
  run_job(&g, &done);
  EXPECT_EQ(abc_->jobs_completed(), 1u);
  EXPECT_GT(done, 0u);
  EXPECT_EQ(abc_->tasks_started(), 1u);
}

TEST_F(AbcTest, ChainedTasksTransferDirectly) {
  build();
  Dfg g("chain");
  const TaskId a = g.add_node(node(abb::AbbKind::kPoly, 128, 2048));
  const TaskId b = g.add_node(node(abb::AbbKind::kDivide, 128, 0, 512));
  g.add_edge(a, b);
  g.finalize();
  run_job(&g);
  EXPECT_EQ(abc_->chains_direct(), 1u);
  EXPECT_EQ(abc_->chains_spilled(), 0u);
}

TEST_F(AbcTest, ChainedConsumerPrefersProducerIsland) {
  build();
  Dfg g("local");
  const TaskId a = g.add_node(node(abb::AbbKind::kPoly, 128, 2048));
  const TaskId b = g.add_node(node(abb::AbbKind::kDivide, 128, 0, 512));
  g.add_edge(a, b);
  g.finalize();
  const std::uint64_t packets_before = mesh_.total_packets();
  run_job(&g);
  // Chain stayed on one island: only memory traffic hit the NoC, and both
  // islands' engines show the work split 1 poly + 1 divide on the SAME
  // island (island 0, first pick).
  EXPECT_EQ(islands_[0]->engine(2).tasks_executed(), 1u);
  EXPECT_EQ(islands_[1]->engine(2).tasks_executed(), 0u);
  EXPECT_GT(mesh_.total_packets(), packets_before);  // memory traffic only
}

TEST_F(AbcTest, LoadBalancesAcrossIslands) {
  build();
  Dfg g("wide");
  for (int i = 0; i < 4; ++i) g.add_node(node(abb::AbbKind::kPoly));
  g.finalize();
  run_job(&g);
  // 4 independent poly tasks over 2 islands x 2 poly slots: both islands
  // used.
  const auto used = [&](int isl) {
    return islands_[isl]->engine(0).tasks_executed() +
           islands_[isl]->engine(1).tasks_executed();
  };
  EXPECT_EQ(used(0) + used(1), 4u);
  EXPECT_GT(used(0), 0u);
  EXPECT_GT(used(1), 0u);
}

TEST_F(AbcTest, QueuesWhenInventoryExhausted) {
  build();
  // 3 jobs each needing both poly blocks of one island; inventory is 4
  // poly total, so the third job waits for releases.
  Dfg g("two-poly");
  g.add_node(node(abb::AbbKind::kPoly));
  g.add_node(node(abb::AbbKind::kPoly));
  g.finalize();
  std::uint64_t completed = 0;
  for (int i = 0; i < 3; ++i) {
    abc_->submit_job(&g, mem_->allocate(4096), mem_->allocate(4096), 0,
                     [&](JobId, Tick) { ++completed; });
  }
  sim_.run();
  EXPECT_EQ(completed, 3u);
  EXPECT_GE(abc_->tasks_queued(), 1u);
}

TEST_F(AbcTest, OversizedJobFallsBackToSpilling) {
  build();
  // 5 divide tasks chained: only 2 divide blocks chip-wide, so atomic
  // composition is impossible; the per-task path must spill chains when a
  // consumer cannot be placed at its producer's completion.
  Dfg g("big");
  TaskId prev = g.add_node(node(abb::AbbKind::kDivide, 128, 1024));
  for (int i = 0; i < 4; ++i) {
    const TaskId t = g.add_node(node(abb::AbbKind::kDivide, 128, 0,
                                     i == 3 ? 512u : 0u));
    g.add_edge(prev, t);
    prev = t;
  }
  g.finalize();
  Tick done = 0;
  run_job(&g, &done);
  EXPECT_EQ(abc_->jobs_completed(), 1u);
  EXPECT_GT(done, 0u);
  // Sequential chain with free resources at each completion: chains stay
  // direct even in fallback mode.
  EXPECT_EQ(abc_->chains_direct() + abc_->chains_spilled(), 4u);
}

TEST_F(AbcTest, OversizedParallelJobSpillsUnderPressure) {
  build();
  // Two oversized jobs compete for the 2 divide blocks; some chains must
  // spill through memory.
  Dfg g("bigpar");
  const TaskId head = g.add_node(node(abb::AbbKind::kDivide, 128, 1024));
  for (int i = 0; i < 3; ++i) {
    const TaskId t = g.add_node(node(abb::AbbKind::kDivide, 128, 0, 512));
    g.add_edge(head, t);
  }
  g.finalize();
  std::uint64_t completed = 0;
  for (int i = 0; i < 2; ++i) {
    abc_->submit_job(&g, mem_->allocate(8192), mem_->allocate(8192), 0,
                     [&](JobId, Tick) { ++completed; });
  }
  sim_.run();
  EXPECT_EQ(completed, 2u);
  EXPECT_GT(abc_->chains_spilled(), 0u);
}

TEST_F(AbcTest, SharingConstraintBlocksNeighbours) {
  island::IslandConfig icfg;
  icfg.spm_sharing = true;
  build({}, icfg,
        {abb::AbbKind::kPoly, abb::AbbKind::kPoly, abb::AbbKind::kPoly,
         abb::AbbKind::kPoly});
  // 4 poly slots per island but neighbours block: at most 2 concurrently
  // active per island (slots 0 and 2, or 1 and 3).
  Dfg g("four");
  for (int i = 0; i < 4; ++i) g.add_node(node(abb::AbbKind::kPoly));
  g.finalize();
  run_job(&g);
  EXPECT_EQ(abc_->jobs_completed(), 1u);
  for (auto& isl : islands_) {
    EXPECT_FALSE(isl->engine(0).tasks_executed() > 0 &&
                 isl->engine(1).tasks_executed() > 0 &&
                 isl->engine(2).tasks_executed() > 0 &&
                 isl->engine(3).tasks_executed() > 0)
        << "4 neighbouring slots cannot all have been used for one "
           "4-task atomic job";
  }
}

TEST_F(AbcTest, MonolithicModeRunsFusedPipeline) {
  AbcConfig cfg;
  cfg.mode = ExecutionMode::kMonolithic;
  build(cfg);
  Dfg g("mono");
  const TaskId a = g.add_node(node(abb::AbbKind::kPoly, 256, 4096));
  const TaskId b = g.add_node(node(abb::AbbKind::kDivide, 256, 0, 1024));
  g.add_edge(a, b);
  g.finalize();
  Tick done = 0;
  run_job(&g, &done);
  EXPECT_EQ(abc_->jobs_completed(), 1u);
  EXPECT_GT(done, 0u);
  EXPECT_GT(abc_->mono_dynamic_energy_j(), 0.0);
  EXPECT_GT(abc_->mono_busy_cycles(0), 0u);
  // Composable machinery untouched.
  EXPECT_EQ(abc_->chains_direct(), 0u);
}

TEST_F(AbcTest, MonolithicJobsSpreadOverIslands) {
  AbcConfig cfg;
  cfg.mode = ExecutionMode::kMonolithic;
  build(cfg);
  Dfg g("mono2");
  g.add_node(node(abb::AbbKind::kPoly, 4096, 64 * 1024, 16 * 1024));
  g.finalize();
  std::uint64_t completed = 0;
  for (int i = 0; i < 4; ++i) {
    abc_->submit_job(&g, mem_->allocate(64 * 1024), mem_->allocate(64 * 1024),
                     0, [&](JobId, Tick) { ++completed; });
  }
  sim_.run();
  EXPECT_EQ(completed, 4u);
  EXPECT_GT(abc_->mono_busy_cycles(0), 0u);
  EXPECT_GT(abc_->mono_busy_cycles(1), 0u);
}

TEST_F(AbcTest, RejectsUnfinalizedDfg) {
  build();
  Dfg g("raw");
  g.add_node(node(abb::AbbKind::kPoly));
  EXPECT_THROW(abc_->submit_job(&g, 0, 0, 0, nullptr), ConfigError);
}

// ---- GAM ----

class GamTest : public AbcTest {
 protected:
  void build_gam(std::uint32_t window) {
    build();
    GamConfig gc;
    gc.node = mesh_.node_at(3, 3);
    gc.max_jobs_in_flight = window;
    gam_ = std::make_unique<Gam>(sim_, mesh_, *abc_, gc);
  }
  std::unique_ptr<Gam> gam_;
};

TEST_F(GamTest, DeliversCompletionInterrupt) {
  build_gam(4);
  Dfg g("one");
  g.add_node(node(abb::AbbKind::kPoly, 128, 2048, 512));
  g.finalize();
  Tick done = 0;
  gam_->submit(&g, mem_->allocate(4096), mem_->allocate(4096),
               mesh_.node_at(4, 0), [&](JobId, Tick t) { done = t; });
  sim_.run();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(gam_->interrupts_delivered(), 1u);
  EXPECT_EQ(gam_->requests(), 1u);
  EXPECT_EQ(gam_->queued_requests(), 0u);
}

TEST_F(GamTest, AdmissionWindowQueuesExcess) {
  build_gam(1);
  Dfg g("one");
  g.add_node(node(abb::AbbKind::kPoly, 512, 8192, 1024));
  g.finalize();
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    gam_->submit(&g, mem_->allocate(16 * 1024), mem_->allocate(16 * 1024),
                 mesh_.node_at(4, 0), [&](JobId, Tick) { ++completed; });
  }
  sim_.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(gam_->queued_requests(), 2u);
  EXPECT_GE(gam_->mean_wait_estimate(), 0.0);
}

// ---- GAM policies ----

TEST(GamPolicy, NamesStable) {
  EXPECT_STREQ(abc::gam_policy_name(abc::GamPolicy::kFifo), "fifo");
  EXPECT_STREQ(abc::gam_policy_name(abc::GamPolicy::kShortestFirst),
               "shortest-first");
  EXPECT_STREQ(abc::gam_policy_name(abc::GamPolicy::kLargestFirst),
               "largest-first");
}

TEST(GamPolicy, AllPoliciesCompleteAllJobs) {
  for (auto policy : {abc::GamPolicy::kFifo, abc::GamPolicy::kShortestFirst,
                      abc::GamPolicy::kLargestFirst}) {
    core::ArchConfig cfg = core::ArchConfig::best_config();
    cfg.gam_policy = policy;
    cfg.max_jobs_in_flight = 2;  // force queueing so ordering matters
    core::System sys(cfg);
    auto w = workloads::make_benchmark("Denoise", 0.05);
    const auto r = sys.run(w);
    EXPECT_EQ(r.jobs, w.invocations) << abc::gam_policy_name(policy);
  }
}

TEST(GamPolicy, PolicyChangesAdmissionOrderDeterministically) {
  // With identical jobs the policies coincide; verify determinism per
  // policy (same makespan run to run).
  for (auto policy :
       {abc::GamPolicy::kShortestFirst, abc::GamPolicy::kLargestFirst}) {
    core::ArchConfig cfg = core::ArchConfig::best_config();
    cfg.gam_policy = policy;
    cfg.max_jobs_in_flight = 2;
    auto w = workloads::make_benchmark("Deblur", 0.05);
    core::System a(cfg);
    core::System b(cfg);
    EXPECT_EQ(a.run(w).makespan, b.run(w).makespan);
  }
}

}  // namespace
}  // namespace ara::abc
