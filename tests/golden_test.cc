// Golden regression bands: guards the calibrated reproduction. These are
// deliberately wide bands around the paper-shape results (EXPERIMENTS.md);
// they fail when a change breaks a reproduced trend, not when noise moves
// a third decimal. ara_paper checks the same bands as shape claims on the
// suite's own scale-0.5 points (bench/paper.cc); these run them at scale
// 0.25, so a shape that holds only at the suite's scale shows up here.
#include <gtest/gtest.h>

#include "cmp/cmp_model.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "power/area_model.h"
#include "workloads/registry.h"

namespace ara {
namespace {

constexpr double kScale = 0.25;

core::RunResult sim_point(const core::ArchConfig& cfg,
                          const workloads::Workload& w) {
  return dse::run(dse::SweepRequest{}.add(cfg, w)).front().result;
}

double perf(const core::ArchConfig& cfg, const workloads::Workload& w) {
  return sim_point(cfg, w).performance();
}

TEST(Golden, Fig7RingBeatsProxyForChainingHeavyAt3Islands) {
  for (const char* name : {"Segmentation", "EKF-SLAM"}) {
    auto w = workloads::make_benchmark(name, kScale);
    const double xbar = perf(core::ArchConfig::paper_baseline(3), w);
    const double ring = perf(core::ArchConfig::ring_design(3, 2, 32), w);
    EXPECT_GT(ring / xbar, 1.5) << name;
    EXPECT_LT(ring / xbar, 3.0) << name;
  }
}

TEST(Golden, Fig7GapCollapsesAt24Islands) {
  auto w = workloads::make_benchmark("EKF-SLAM", kScale);
  const double xbar = perf(core::ArchConfig::paper_baseline(24), w);
  const double ring = perf(core::ArchConfig::ring_design(24, 2, 32), w);
  EXPECT_GT(ring / xbar, 0.9);
  EXPECT_LT(ring / xbar, 1.4);
}

TEST(Golden, Fig7LowChainingIndifferentToTopology) {
  auto w = workloads::make_benchmark("Denoise", kScale);
  const double xbar = perf(core::ArchConfig::paper_baseline(3), w);
  const double ring = perf(core::ArchConfig::ring_design(3, 2, 32), w);
  EXPECT_NEAR(ring / xbar, 1.0, 0.15);
}

TEST(Golden, Fig6DenoiseScalesMoreThanEkfWithIslands) {
  auto denoise = workloads::make_benchmark("Denoise", kScale);
  auto ekf = workloads::make_benchmark("EKF-SLAM", kScale);
  const double d_gain = perf(core::ArchConfig::paper_baseline(24), denoise) /
                        perf(core::ArchConfig::paper_baseline(3), denoise);
  const double e_gain = perf(core::ArchConfig::paper_baseline(24), ekf) /
                        perf(core::ArchConfig::paper_baseline(3), ekf);
  EXPECT_GT(d_gain, 1.8);
  EXPECT_GT(e_gain, 1.3);
  EXPECT_GT(d_gain, e_gain);  // the Fig. 6 ordering
}

TEST(Golden, Fig10SpeedupBands) {
  const cmp::CmpModel cmp12(cmp::CmpConfig::xeon_e5_2420());
  const core::ArchConfig best = core::ArchConfig::best_config();
  struct Band {
    const char* name;
    double lo, hi;
  };
  // Paper values +/- ~35%.
  const Band bands[] = {
      {"Denoise", 2.8, 5.8},
      {"Segmentation", 19.0, 40.0},
      {"EKF-SLAM", 1.2, 2.5},
  };
  for (const auto& b : bands) {
    auto w = workloads::make_benchmark(b.name, kScale);
    const auto r = sim_point(best, w);
    const double speedup = cmp12.run(w).seconds / r.seconds();
    EXPECT_GT(speedup, b.lo) << b.name;
    EXPECT_LT(speedup, b.hi) << b.name;
  }
}

TEST(Golden, Fig10EnergyGainTracksSpeedup) {
  // The paper's energy-gain/speedup ratio is ~2.76 across benchmarks.
  const cmp::CmpModel cmp12(cmp::CmpConfig::xeon_e5_2420());
  auto w = workloads::make_benchmark("Deblur", kScale);
  const auto r = sim_point(core::ArchConfig::best_config(), w);
  const auto sw = cmp12.run(w);
  const double ratio =
      (sw.joules / r.energy.total()) / (sw.seconds / r.seconds());
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 3.6);
}

TEST(Golden, Sec52ChainingXbarAreaBlowup) {
  // >97% of a 40-ABB island.
  core::ArchConfig cfg = core::ArchConfig::paper_baseline(3);
  cfg.island.net.topology = island::SpmDmaTopology::kChainingXbar;
  core::System sys(cfg);
  const auto& isl = sys.island(0);
  EXPECT_GT(isl.net_area_mm2() / isl.total_area_mm2(), 0.97);
}

TEST(Golden, Sec57AreaShares) {
  {
    core::System sys(core::ArchConfig::paper_baseline(3));
    const auto& isl = sys.island(0);
    const double share = isl.net_area_mm2() / isl.total_area_mm2();
    EXPECT_GT(share, 0.40);  // proxy xbar, large island: paper 44-50%
    EXPECT_LT(share, 0.52);
  }
  for (std::uint32_t rings : {1u, 2u, 3u}) {
    core::System sys(core::ArchConfig::ring_design(3, rings, 32));
    const auto& isl = sys.island(0);
    const double share = isl.net_area_mm2() / isl.total_area_mm2();
    EXPECT_GT(share, 0.10);  // paper: rings 16-40%
    EXPECT_LT(share, 0.46);
  }
}

TEST(Golden, Sec53TwoNarrowRingsMatchOneWide) {
  auto w = workloads::make_benchmark("EKF-SLAM", kScale);
  const double two16 = perf(core::ArchConfig::ring_design(3, 2, 16), w);
  const double one32 = perf(core::ArchConfig::ring_design(3, 1, 32), w);
  EXPECT_NEAR(two16 / one32, 1.0, 0.12);
}

TEST(Golden, Sec54PortDoublingIsNegligible) {
  auto w = workloads::make_benchmark("Registration", kScale);
  core::ArchConfig exact = core::ArchConfig::ring_design(6, 2, 32);
  core::ArchConfig doubled = exact;
  doubled.island.spm_port_multiplier = 2;
  const double gain = perf(doubled, w) / perf(exact, w);
  EXPECT_NEAR(gain, 1.0, 0.05);
}

TEST(Golden, UtilizationInPaperBallpark) {
  auto w = workloads::make_benchmark("Deblur", kScale);
  const auto r = sim_point(core::ArchConfig::best_config(), w);
  EXPECT_GT(r.avg_abb_utilization, 0.05);
  EXPECT_LT(r.avg_abb_utilization, 0.35);
  EXPECT_GT(r.peak_abb_utilization, 0.2);
}

}  // namespace
}  // namespace ara
