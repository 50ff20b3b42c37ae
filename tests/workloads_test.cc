// Tests for the workload generators and registry.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/config_error.h"
#include "cmp/cmp_model.h"
#include "core/arch_config.h"
#include "core/config_digest.h"
#include "core/system.h"
#include "workloads/registry.h"

namespace ara::workloads {
namespace {

TEST(Generator, DeterministicForSameParams) {
  DfgGenParams p;
  p.tasks = 20;
  p.seed = 7;
  const auto a = generate_dfg("a", p);
  const auto b = generate_dfg("b", p);
  ASSERT_EQ(a.size(), b.size());
  for (TaskId t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.node(t).kind, b.node(t).kind);
    EXPECT_EQ(a.node(t).elements, b.node(t).elements);
    EXPECT_EQ(a.node(t).preds, b.node(t).preds);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  DfgGenParams p;
  p.tasks = 20;
  p.seed = 7;
  const auto a = generate_dfg("a", p);
  p.seed = 8;
  const auto b = generate_dfg("b", p);
  bool differs = false;
  for (TaskId t = 0; t < a.size(); ++t) {
    if (a.node(t).elements != b.node(t).elements) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, ChainFractionControlsChainingDegree) {
  DfgGenParams low;
  low.tasks = 400;
  low.chain_fraction = 0.1;
  low.seed = 11;
  DfgGenParams high = low;
  high.chain_fraction = 0.7;
  const double d_low = generate_dfg("l", low).chaining_degree();
  const double d_high = generate_dfg("h", high).chaining_degree();
  EXPECT_LT(d_low, 0.2);
  EXPECT_GT(d_high, 0.5);
}

TEST(Generator, LeavesStoreOutput) {
  DfgGenParams p;
  p.tasks = 30;
  p.seed = 3;
  const auto g = generate_dfg("g", p);
  for (const auto& n : g.nodes()) {
    if (n.succs.empty()) {
      EXPECT_GT(n.mem_out_bytes, 0u);
    } else {
      EXPECT_EQ(n.mem_out_bytes, 0u);
    }
  }
}

TEST(Generator, ComputeIterationsScaleElementsNotBytes) {
  DfgGenParams p;
  p.tasks = 10;
  p.seed = 5;
  p.compute_iterations = 1;
  const auto one = generate_dfg("one", p);
  p.compute_iterations = 4;
  const auto four = generate_dfg("four", p);
  for (TaskId t = 0; t < one.size(); ++t) {
    EXPECT_EQ(four.node(t).elements, 4 * one.node(t).elements);
    EXPECT_EQ(four.node(t).mem_in_bytes, one.node(t).mem_in_bytes);
  }
}

TEST(Generator, ChainWordsScaleChainBytes) {
  DfgGenParams p;
  p.tasks = 10;
  p.seed = 5;
  p.chain_words = 1;
  const auto one = generate_dfg("one", p);
  p.chain_words = 2;
  const auto two = generate_dfg("two", p);
  for (TaskId t = 0; t < one.size(); ++t) {
    EXPECT_EQ(two.node(t).chain_in_bytes, 2 * one.node(t).chain_in_bytes);
  }
}

TEST(Generator, FabricFractionMarksNodes) {
  DfgGenParams p;
  p.tasks = 200;
  p.seed = 5;
  p.fabric_fraction = 0.3;
  const auto g = generate_dfg("g", p);
  std::size_t fabric = 0;
  for (const auto& n : g.nodes()) fabric += n.needs_fabric ? 1 : 0;
  EXPECT_GT(fabric, 30u);
  EXPECT_LT(fabric, 100u);
}

TEST(Registry, SevenPaperBenchmarks) {
  const auto& names = benchmark_names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "Deblur");
  EXPECT_EQ(names[2], "Segmentation");
  EXPECT_EQ(names[5], "EKF-SLAM");
}

TEST(Registry, AllBenchmarksConstruct) {
  for (const auto& name : benchmark_names()) {
    const Workload w = make_benchmark(name, 0.1);
    EXPECT_FALSE(w.name.empty());
    EXPECT_TRUE(w.dfg.finalized());
    EXPECT_GT(w.dfg.size(), 0u);
    EXPECT_GT(w.invocations, 0u);
    EXPECT_GT(w.cmp_cycles_per_invocation, 0.0);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("Nonesuch"), ConfigError);
}

TEST(Registry, WorkloadTextMatchesPinnedDigests) {
  // Every registered workload, byte for byte: a change to any generator
  // knob, software cost or invocation count changes its digest.
  struct Pin {
    const char* name;
    std::uint64_t full;       // scale 1.0
    std::uint64_t twentieth;  // scale 0.05
  };
  const Pin pins[] = {
      {"Deblur", 0xb96fe8f5ee470537ull, 0x5806a1c95e9f8d18ull},
      {"Denoise", 0x4c87621521520f7eull, 0x7fe3dafd08d1458bull},
      {"Segmentation", 0x8c28e6a3ee213e9bull, 0xb839a71d9f3e72f7ull},
      {"Registration", 0xb8cf46f5bcaa0278ull, 0xc1bd910a55998555ull},
      {"RobotLocalization", 0x659e6a0fd5e46ff7ull, 0xf21f870ab893eb44ull},
      {"EKF-SLAM", 0x16ed285dc8b35eb5ull, 0x3e0f2b42c32b0a76ull},
      {"DisparityMap", 0x8825e1610f6debefull, 0x92273b6b5222c546ull},
      {"LPCIP", 0xcfc1d2b79b2cf967ull, 0x4ca1082b2ce2e22aull},
      {"TextureSynthesis", 0x51cd2b9c66443d39ull, 0x3f49baf3c8209bb9ull},
      {"BlackScholes", 0xaa4174aeae564047ull, 0xeb5f365f68c0d65eull},
      {"DenoiseIR", 0x52b068c5ef2c72d8ull, 0x95b70b944b72f74aull},
  };
  const auto digest = [](const char* name, double scale) {
    return core::fnv1a64(core::canonical_text(make_benchmark(name, scale)));
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(digest(p.name, 1.0), p.full) << p.name;
    EXPECT_EQ(digest(p.name, 0.05), p.twentieth) << p.name;
  }
}

TEST(Registry, ScaleAdjustsInvocations) {
  const auto full = make_benchmark("Denoise", 1.0);
  const auto half = make_benchmark("Denoise", 0.5);
  EXPECT_NEAR(static_cast<double>(half.invocations),
              full.invocations / 2.0, 1.0);
}

TEST(Registry, RejectsBadScale) {
  // A scale that is not finite and > 0, or whose invocation count does not
  // fit in 32 bits, must not wrap into some other run length.
  for (const double bad : {-1.0, 0.0, std::numeric_limits<double>::infinity(),
                           std::nan(""), 1e12}) {
    EXPECT_THROW(make_benchmark("Denoise", bad), ConfigError) << bad;
  }
  // A tiny positive scale still runs one invocation.
  EXPECT_EQ(make_benchmark("Denoise", 1e-9).invocations, 1u);
}

TEST(Registry, ChainingOrderingMatchesPaperNarrative) {
  // Denoise is the low-chaining example, EKF-SLAM the high-chaining one.
  const double denoise = make_benchmark("Denoise").dfg.chaining_degree();
  const double ekf = make_benchmark("EKF-SLAM").dfg.chaining_degree();
  const double seg = make_benchmark("Segmentation").dfg.chaining_degree();
  EXPECT_LT(denoise, 0.2);
  EXPECT_GT(ekf, 0.5);
  EXPECT_GT(seg, 0.4);
  EXPECT_LT(denoise, seg);
}

TEST(Registry, DenoiseIrGoesThroughCompiler) {
  const auto w = make_benchmark("DenoiseIR");
  EXPECT_TRUE(w.dfg.finalized());
  EXPECT_GT(w.dfg.size(), 2u);       // poly groups + sqrt + div at least
  EXPECT_GT(w.dfg.chain_edges(), 2u);
  bool has_sqrt = false, has_div = false;
  for (const auto& n : w.dfg.nodes()) {
    has_sqrt |= n.kind == abb::AbbKind::kSqrt;
    has_div |= n.kind == abb::AbbKind::kDivide;
  }
  EXPECT_TRUE(has_sqrt);
  EXPECT_TRUE(has_div);

  // The Decomposer-built DFG runs to completion on a chip.
  const auto small = make_benchmark("DenoiseIR", 0.05);
  ASSERT_EQ(small.invocations, 11u);
  core::System sys(core::ArchConfig::ring_design(6, 2, 32));
  const auto r = sys.run(small);
  EXPECT_EQ(r.jobs, 11u);
  EXPECT_EQ(r.chains_spilled, 0u);
}

TEST(SoftwareCost, ScalesWithMultiplier) {
  const auto w = make_benchmark("Deblur");
  const double x1 = software_cycles_per_invocation(w.dfg, 1.0);
  const double x2 = software_cycles_per_invocation(w.dfg, 2.0);
  EXPECT_NEAR(x2, 2.0 * x1, 1e-6);
}

TEST(CmpModel, TimeAndEnergyScaleWithWork) {
  cmp::CmpModel model(cmp::CmpConfig::xeon_e5_2420());
  Workload w = make_benchmark("Denoise", 1.0);
  const auto r1 = model.run(w);
  w.cmp_cycles_per_invocation *= 2;
  const auto r2 = model.run(w);
  EXPECT_NEAR(r2.seconds, 2 * r1.seconds, 1e-12);
  EXPECT_NEAR(r2.joules, 2 * r1.joules, 1e-9);
}

TEST(CmpModel, MoreCoresFaster) {
  const Workload w = make_benchmark("Denoise", 1.0);
  const auto r12 = cmp::CmpModel(cmp::CmpConfig::xeon_e5_2420()).run(w);
  const auto r4 = cmp::CmpModel(cmp::CmpConfig::xeon_e5405()).run(w);
  EXPECT_LT(r12.seconds, r4.seconds);
}

TEST(CmpModel, ConfigsMatchPaperMachines) {
  const auto c12 = cmp::CmpConfig::xeon_e5_2420();
  EXPECT_EQ(c12.cores, 12u);
  EXPECT_DOUBLE_EQ(c12.freq_ghz, 1.9);
  const auto c4 = cmp::CmpConfig::xeon_e5405();
  EXPECT_EQ(c4.cores, 4u);
  EXPECT_DOUBLE_EQ(c4.freq_ghz, 2.0);
}

}  // namespace
}  // namespace ara::workloads
