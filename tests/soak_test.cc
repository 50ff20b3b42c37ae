// Long-run soak of the reservation layer: four design points whose
// makespans run past a million cycles, each simulated once on its own
// core::System. Each point's cache entry is built the way perfbench builds
// it and hashed as FNV-1a of ResultCache::to_json without its trailing
// newline, so the pinned digests are perfbench-style digests of the same
// points. Every mesh port must also end the run holding a bounded number
// of reservation intervals: a link retires what ends at or before the
// simulated now, so the count follows the live window, not the run length.
//
// Built as its own executable (ara_soak_tests) and run as the fuzz-tier
// ctest link_soak, so the unit tier stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string_view>

#include "core/config_digest.h"
#include "core/system.h"
#include "dse/result_cache.h"
#include "dse/spec.h"
#include "noc/router.h"
#include "obs/metrics_export.h"
#include "workloads/registry.h"

namespace ara {
namespace {

struct SoakPoint {
  const char* bench;
  double scale;
  const char* net;
  std::uint32_t rings;
  std::uint64_t width;
  bool l2_bypass;
  Tick makespan;
  std::uint64_t digest;
};

void PrintTo(const SoakPoint& p, std::ostream* os) {
  *os << p.bench << " " << p.net << " " << p.rings << "x" << p.width
      << "B scale " << p.scale << (p.l2_bypass ? " l2_bypass" : "");
}

constexpr std::size_t kMaxPortIntervals = 8192;

class LinkSoak : public ::testing::TestWithParam<SoakPoint> {};

TEST_P(LinkSoak, LongPointKeepsDigestAndBoundedIntervals) {
  ASSERT_EQ(dse::kSimVersionSalt, 5u) << "re-pin these points after a bump";
  const SoakPoint& p = GetParam();
  dse::PointSpec spec;
  spec.islands = 3;
  spec.net = p.net;
  spec.rings = p.rings;
  spec.link_bytes = p.width;
  core::ArchConfig cfg = spec.to_config();
  cfg.mem.l2_bypass = p.l2_bypass;
  const workloads::Workload wl = workloads::make_benchmark(p.bench, p.scale);

  core::System sys(cfg);
  dse::ResultCache::Entry entry;
  entry.result = sys.run(wl);
  entry.metrics = obs::MetricsSnapshot::capture(sys.stats());
  entry.events = sys.simulator().events_processed();
  entry.event_kinds = sys.simulator().kind_stats();
  EXPECT_EQ(entry.result.makespan, p.makespan);

  const std::string json = dse::ResultCache::to_json(
      dse::ResultCache::key(cfg, wl), dse::kSimVersionSalt, entry);
  std::string_view bytes = json;
  while (!bytes.empty() && bytes.back() == '\n') bytes.remove_suffix(1);
  EXPECT_EQ(core::fnv1a64(bytes), p.digest);

  std::size_t most = 0;
  for (NodeId n = 0; n < sys.mesh().node_count(); ++n) {
    for (std::size_t d = 0; d < noc::kNumPorts; ++d) {
      const auto& port =
          sys.mesh().router(n).port(static_cast<noc::Direction>(d));
      most = std::max(most, port.reservation_intervals());
    }
  }
  EXPECT_LE(most, kMaxPortIntervals);
}

// Digests pinned on the commit that still compacted link intervals: the
// retirement rule changed no result on any of these points.
INSTANTIATE_TEST_SUITE_P(
    Points, LinkSoak,
    ::testing::Values(
        SoakPoint{"Denoise", 4.0, "proxy", 1, 32, false, 2'115'630,
                  0x81df8da057a4d4d7ull},
        SoakPoint{"Segmentation", 4.0, "ring", 1, 16, false, 3'070'242,
                  0x7252ab5f78a2c8c0ull},
        SoakPoint{"EKF-SLAM", 4.0, "ring", 2, 32, false, 1'150'918,
                  0xeaded7e1f33c6d0dull},
        SoakPoint{"Denoise", 2.0, "proxy", 1, 32, true, 2'403'144,
                  0x0862b87aa23bc39dull}));

}  // namespace
}  // namespace ara
