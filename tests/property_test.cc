// Property-based and parameterized tests: invariants that must hold across
// the whole design space and under randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "check/check.h"
#include "check/fuzz.h"
#include "core/arch_config.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "island/spm_dma_net.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/shared_link.h"
#include "workloads/registry.h"

namespace ara {
namespace {

core::RunResult sim_point(const core::ArchConfig& cfg,
                          const workloads::Workload& w) {
  return dse::run(dse::SweepRequest{}.add(cfg, w)).front().result;
}

// ---------- SharedLink properties under random traffic ----------

class SharedLinkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedLinkProperty, ConservationAndNonOverlap) {
  sim::Rng rng(GetParam());
  sim::SharedLink link("p", 8.0, 2);
  Bytes total = 0;
  Tick busy_expected = 0;
  for (int i = 0; i < 2000; ++i) {
    const Tick ready = rng.next_below(100000);
    const Bytes bytes = 1 + rng.next_below(1024);
    const Tick done = link.submit(ready, bytes);
    const Tick occupancy = ceil_div<Tick>(bytes, 8);
    // Completion is never before ready + occupancy + latency.
    EXPECT_GE(done, ready + occupancy + 2);
    total += bytes;
    busy_expected += occupancy;
  }
  EXPECT_EQ(link.total_bytes(), total);
  EXPECT_EQ(link.busy_cycles(), busy_expected);  // no double-booked cycles
  EXPECT_EQ(link.transfers(), 2000u);
}

TEST_P(SharedLinkProperty, GapFillingNeverBlocksEarlyTraffic) {
  sim::Rng rng(GetParam());
  sim::SharedLink link("p", 16.0, 0);
  // Reserve far in the future, then verify a small early payload is not
  // pushed behind it (the no-backfill serialization bug).
  link.submit(1'000'000, 64);
  const Tick done = link.submit(10, 64);
  EXPECT_LE(done, 14u + 4u);
}

// Brute-force reference for SharedLink: one busy flag per cycle. A payload
// takes the earliest run of free cycles at or after its ready time, with its
// occupancy computed exactly as SharedLink::submit computes it.
class CycleOccupancyModel {
 public:
  CycleOccupancyModel(double bytes_per_cycle, Tick latency)
      : bytes_per_cycle_(bytes_per_cycle), latency_(latency) {}

  Tick submit(Tick ready_at, Bytes bytes) {
    if (bytes == 0) return ready_at + latency_;
    auto occupancy = static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
    if (occupancy == 0) occupancy = 1;
    Tick start = ready_at;
    for (Tick run = 0; run < occupancy;) {
      if (busy(start + run)) {
        start += run + 1;
        run = 0;
      } else {
        ++run;
      }
    }
    if (busy_.size() < start + occupancy) busy_.resize(start + occupancy);
    std::fill(busy_.begin() + static_cast<std::ptrdiff_t>(start),
              busy_.begin() + static_cast<std::ptrdiff_t>(start + occupancy),
              true);
    total_bytes_ += bytes;
    ++transfers_;
    return start + occupancy + latency_;
  }

  /// Number of maximal runs of busy cycles.
  std::size_t busy_runs() const {
    std::size_t runs = 0;
    for (std::size_t t = 0; t < busy_.size(); ++t) {
      if (busy_[t] && (t == 0 || !busy_[t - 1])) ++runs;
    }
    return runs;
  }

  Tick busy_cycles() const {
    return static_cast<Tick>(std::count(busy_.begin(), busy_.end(), true));
  }
  Bytes total_bytes() const { return total_bytes_; }
  std::uint64_t transfers() const { return transfers_; }

 private:
  bool busy(Tick t) const { return t < busy_.size() && busy_[t]; }

  double bytes_per_cycle_;
  Tick latency_;
  std::vector<bool> busy_;
  Bytes total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
};

// Random payload streams through chains of links, checked submit by submit
// against the per-cycle model. Streams mix fractional bandwidths, non-zero
// latencies, zero-byte payloads, reservations far in the future and later
// reservations ready before earlier ones. The links have no floor, so none
// drops an interval and each interval is one run of busy cycles.
TEST_P(SharedLinkProperty, MatchesCycleOccupancyModel) {
  sim::Rng rng(GetParam());
  constexpr double kBandwidths[] = {0.75, 1.0, 2.5, 8.0, 10.0, 16.0, 32.0};
  constexpr std::uint64_t kLinks = 3;
  std::vector<sim::SharedLink> links;
  std::vector<CycleOccupancyModel> models;
  for (std::uint64_t l = 0; l < kLinks; ++l) {
    const double bw = kBandwidths[rng.next_below(std::size(kBandwidths))];
    const Tick latency = rng.next_below(6);
    links.emplace_back("d" + std::to_string(l), bw, latency);
    models.emplace_back(bw, latency);
  }
  const auto expect_same_state = [&](int after) {
    for (std::uint64_t l = 0; l < kLinks; ++l) {
      SCOPED_TRACE("link " + std::to_string(l) + " after submit " +
                   std::to_string(after));
      EXPECT_EQ(links[l].busy_cycles(), models[l].busy_cycles());
      EXPECT_EQ(links[l].total_bytes(), models[l].total_bytes());
      EXPECT_EQ(links[l].transfers(), models[l].transfers());
      EXPECT_EQ(links[l].reservation_intervals(), models[l].busy_runs());
    }
  };

  Tick now = 0;
  for (int i = 0; i < 3000; ++i) {
    now += rng.next_below(400);
    Tick ready = now + rng.next_below(200);
    const auto kind = rng.next_below(10);
    if (kind == 0) {
      ready = now + 20'000 + rng.next_below(200'000);  // far in the future
    } else if (kind <= 2) {
      ready = now - std::min<Tick>(now, rng.next_below(3000));  // behind
    }
    const Bytes bytes = rng.next_below(16) == 0 ? 0 : 1 + rng.next_below(128);
    // A chain over consecutive links: each hop is ready when the previous
    // hop returns.
    const auto first = rng.next_below(kLinks);
    const auto last = first + rng.next_below(kLinks - first);
    Tick got = ready;
    Tick want = ready;
    for (auto l = first; l <= last; ++l) {
      got = links[l].submit(got, bytes);
      want = models[l].submit(want, bytes);
      ASSERT_EQ(got, want) << "submit " << i << " on link " << l << ", "
                           << bytes << " bytes ready at " << ready;
    }
    if (i % 250 == 249) expect_same_state(i);
  }
  expect_same_state(3000);
}

// Reference SharedLink: the sorted-vector algorithm as first written, over a
// std::pair vector. It never drops an interval, so a SharedLink that
// retires intervals behind its floor must still return the same ticks and
// book the same busy cycles.
class PairVectorLink {
 public:
  PairVectorLink(double bytes_per_cycle, Tick latency)
      : bytes_per_cycle_(bytes_per_cycle), latency_(latency) {}

  Tick submit(Tick ready_at, Bytes bytes) {
    if (bytes == 0) return ready_at + latency_;
    auto occupancy = static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
    if (occupancy == 0) occupancy = 1;

    Tick start = ready_at;
    auto it = first_after(ready_at);
    if (it != busy_.begin() && std::prev(it)->second > start) {
      start = std::prev(it)->second;
    }
    while (it != busy_.end() && start + occupancy > it->first) {
      start = it->second;
      ++it;
    }
    const Tick end = start + occupancy;

    const bool joins_prev =
        it != busy_.begin() && std::prev(it)->second == start;
    const bool joins_next = it != busy_.end() && it->first == end;
    if (joins_prev && joins_next) {
      std::prev(it)->second = it->second;
      busy_.erase(it);
    } else if (joins_prev) {
      std::prev(it)->second = end;
    } else if (joins_next) {
      it->first = start;
    } else {
      busy_.insert(it, {start, end});
    }

    busy_cycles_ += occupancy;
    return end + latency_;
  }

  std::size_t intervals() const { return busy_.size(); }
  /// Number of intervals ending after `floor`: the ones a link with that
  /// floor must keep.
  std::size_t live(Tick floor) const {
    return static_cast<std::size_t>(
        busy_.end() - std::partition_point(
                          busy_.begin(), busy_.end(),
                          [&](const Interval& iv) { return iv.second <= floor; }));
  }
  Tick busy_cycles() const { return busy_cycles_; }

 private:
  using Interval = std::pair<Tick, Tick>;

  std::vector<Interval>::iterator first_after(Tick t) {
    auto hi = busy_.end();
    for (std::ptrdiff_t stride = 1; hi != busy_.begin(); stride *= 2) {
      const auto probe = hi - std::min(stride, hi - busy_.begin());
      if (probe->first <= t) {
        return std::upper_bound(
            probe, hi, t,
            [](Tick x, const Interval& iv) { return x < iv.first; });
      }
      hi = probe;
    }
    return hi;
  }

  double bytes_per_cycle_;
  Tick latency_;
  std::vector<Interval> busy_;
  Tick busy_cycles_ = 0;
};

// Links whose floor is a Simulator's now(), driven by events at increasing
// ticks and checked submit by submit against PairVectorLink, which never
// retires: the returned tick and the busy cycles. Each event submits a
// random batch ready at now, in the near future, further ahead or far
// ahead, with zero-byte payloads and sizes that change from submit to
// submit; a one-byte payload at now leaves an interval ending one tick
// past the floor. The streams pass many retirement thresholds, and a link
// may never hold more than max(64, 2 x the most intervals the reference
// held ending after the floor at any submit so far).
TEST_P(SharedLinkProperty, RetirementMatchesNeverRetiringLink) {
  sim::Rng rng(GetParam());
  sim::Simulator sim;
  constexpr double kBandwidths[] = {7.5, 10.0, 16.0, 32.0};
  constexpr Bytes kSizes[] = {1, 16, 64, 64, 0, 7, 100, 200};
  constexpr std::uint64_t kLinks = 2;
  std::vector<sim::SharedLink> links;
  std::vector<PairVectorLink> refs;
  for (std::uint64_t l = 0; l < kLinks; ++l) {
    const double bw = kBandwidths[rng.next_below(std::size(kBandwidths))];
    const Tick latency = rng.next_below(4);
    links.emplace_back("r" + std::to_string(l), bw, latency, &sim);
    refs.emplace_back(bw, latency);
  }
  std::vector<std::size_t> peak_live(kLinks, 0);
  // Submits after which a link held at least two intervals fewer: only a
  // retirement shrinks a list by more than one.
  std::vector<std::uint64_t> retirements(kLinks, 0);
  int submits = 0;
  constexpr int kSubmits = 14'000;
  std::function<void()> event = [&] {
    const Tick now = sim.now();
    for (auto n = 1 + rng.next_below(8); n > 0; --n, ++submits) {
      Tick ready = now;
      const auto kind = rng.next_below(1000);
      if (kind < 2) {
        ready = now + 20'000 + rng.next_below(300'000);  // far ahead
      } else if (kind < 12) {
        ready = now + 2'000 + rng.next_below(30'000);  // ahead
      } else if (kind < 600) {
        ready = now + 1 + rng.next_below(64);  // near future
      }
      const Bytes bytes = kSizes[rng.next_below(std::size(kSizes))];
      const auto first = rng.next_below(kLinks);
      Tick got = ready;
      Tick want = ready;
      for (auto l = first; l < kLinks; ++l) {
        const std::size_t before = links[l].reservation_intervals();
        got = links[l].submit(got, bytes);
        want = refs[l].submit(want, bytes);
        ASSERT_EQ(got, want) << "submit " << submits << " on link " << l
                             << ", " << bytes << " bytes ready at " << ready
                             << ", now " << now;
        ASSERT_EQ(links[l].busy_cycles(), refs[l].busy_cycles())
            << "submit " << submits << " on link " << l;
        const std::size_t held = links[l].reservation_intervals();
        if (held + 1 < before) ++retirements[l];
        peak_live[l] = std::max(peak_live[l], refs[l].live(now));
        ASSERT_LE(held, std::max<std::size_t>(64, 2 * peak_live[l]))
            << "submit " << submits << " on link " << l << ", now " << now;
      }
    }
    if (submits < kSubmits) sim.schedule_in(rng.next_below(100), event);
  };
  sim.schedule_at(0, event);
  sim.run();
  EXPECT_GE(submits, kSubmits);
  for (std::uint64_t l = 0; l < kLinks; ++l) {
    EXPECT_GE(retirements[l], 10u) << "link " << l;
    // The reference kept every interval; the link kept only a window.
    EXPECT_LT(links[l].reservation_intervals(), refs[l].intervals())
        << "link " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedLinkProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- Event queue ordering under random schedules ----------

class EventOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderProperty, MonotonicExecution) {
  sim::Rng rng(GetParam());
  sim::Simulator s;
  Tick last = 0;
  bool ok = true;
  for (int i = 0; i < 500; ++i) {
    const Tick at = rng.next_below(10000);
    s.schedule_at(at, [&, at] {
      if (at < last) ok = false;
      last = at;
    });
  }
  s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(s.events_processed(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty,
                         ::testing::Values(17, 23, 29, 31));

// ---------- Ring network properties across sizes ----------

class RingProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(RingProperty, TransfersCompleteAndAccount) {
  const auto [rings, abbs] = GetParam();
  island::SpmDmaNetConfig cfg;
  cfg.topology = island::SpmDmaTopology::kRing;
  cfg.num_rings = rings;
  cfg.link_bytes = 32;
  auto net = island::make_spm_dma_net("p", cfg, abbs);
  Bytes moved = 0;
  Tick t = 0;
  sim::Rng rng(rings * 100 + abbs);
  for (int i = 0; i < 200; ++i) {
    const AbbId a = static_cast<AbbId>(rng.next_below(abbs));
    const AbbId b = static_cast<AbbId>(rng.next_below(abbs));
    const Bytes bytes = 64 * (1 + rng.next_below(8));
    Tick done;
    switch (rng.next_below(3)) {
      case 0:
        done = net->to_spm(t, a, bytes);
        break;
      case 1:
        done = net->from_spm(t, a, bytes);
        break;
      default:
        done = net->chain(t, a, b, bytes);
        break;
    }
    EXPECT_GE(done, t);
    moved += (a == b && rng.next_below(3) == 2) ? 0 : 0;  // bookkeeping only
  }
  EXPECT_GT(net->total_bytes(), 0u);
  EXPECT_GT(net->area_mm2(), 0.0);
  EXPECT_GE(net->dynamic_energy_j(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RingProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(5, 10, 20, 40)));

// ---------- Whole-system properties across the design space ----------

// gtest names each instance after the raw bytes of its DesignPoint. The pad_*
// members fill what would otherwise be padding with zeros, so every byte, and
// with it every test name, is the same from run to run.
struct DesignPoint {
  DesignPoint(std::uint32_t islands_, island::SpmDmaTopology topo_,
              std::uint32_t rings_, Bytes width_, bool sharing_,
              std::uint32_t ports_)
      : islands(islands_),
        topo(topo_),
        rings(rings_),
        width(width_),
        sharing(sharing_),
        ports(ports_) {}

  std::uint32_t islands;
  island::SpmDmaTopology topo;
  std::uint8_t pad_topo[3] = {};
  std::uint32_t rings;
  std::uint32_t pad_rings = 0;
  Bytes width;
  bool sharing;
  std::uint8_t pad_sharing[3] = {};
  std::uint32_t ports;
};
static_assert(sizeof(DesignPoint) == 32, "DesignPoint must have no padding");

class SystemProperty : public ::testing::TestWithParam<DesignPoint> {};

TEST_P(SystemProperty, WorkloadAlwaysCompletesWithInvariants) {
  const auto& dp = GetParam();
  core::ArchConfig cfg = core::ArchConfig::paper_baseline(dp.islands);
  cfg.island.net.topology = dp.topo;
  cfg.island.net.num_rings = dp.rings;
  cfg.island.net.link_bytes = dp.width;
  cfg.island.spm_sharing = dp.sharing;
  cfg.island.spm_port_multiplier = dp.ports;
  cfg.validate();

  auto w = workloads::make_benchmark("Registration", 0.05);
  core::System sys(cfg);
  const auto r = sys.run(w);

  EXPECT_EQ(r.jobs, w.invocations);
  EXPECT_GT(r.makespan, 0u);
  EXPECT_GT(r.energy.total(), 0.0);
  EXPECT_GT(r.area.islands_mm2, 0.0);
  EXPECT_LE(r.peak_abb_utilization, 1.0);
  // Every chain edge was served exactly once, one way or the other.
  EXPECT_EQ(r.chains_direct + r.chains_spilled,
            w.dfg.chain_edges() * w.invocations);
  EXPECT_LE(r.noc_peak_link_utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SystemProperty,
    ::testing::Values(
        DesignPoint{3, island::SpmDmaTopology::kProxyXbar, 1, 32, false, 1},
        DesignPoint{6, island::SpmDmaTopology::kRing, 1, 16, false, 1},
        DesignPoint{6, island::SpmDmaTopology::kRing, 2, 32, false, 2},
        DesignPoint{12, island::SpmDmaTopology::kChainingXbar, 1, 32, false,
                    1},
        DesignPoint{12, island::SpmDmaTopology::kRing, 3, 32, true, 1},
        DesignPoint{24, island::SpmDmaTopology::kRing, 2, 32, false, 1},
        DesignPoint{24, island::SpmDmaTopology::kProxyXbar, 1, 16, true, 2}));

// ---------- Determinism across the benchmark suite ----------

class DeterminismProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismProperty, SameConfigSameResult) {
  auto w = workloads::make_benchmark(GetParam(), 0.05);
  const auto a = sim_point(core::ArchConfig::ring_design(6, 2, 32), w);
  const auto b = sim_point(core::ArchConfig::ring_design(6, 2, 32), w);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, DeterminismProperty,
                         ::testing::ValuesIn(workloads::benchmark_names()));

// ---------- Monotonicity: fewer resources never helps ----------

TEST(MonotonicityProperty, WiderRingNeverHurtsMuch) {
  // Allowing small scheduling noise, a 2-ring 32B network should never be
  // materially slower than a 1-ring 16B one.
  for (const char* name : {"Denoise", "Segmentation"}) {
    auto w = workloads::make_benchmark(name, 0.05);
    const auto narrow =
        sim_point(core::ArchConfig::ring_design(6, 1, 16), w);
    const auto wide =
        sim_point(core::ArchConfig::ring_design(6, 2, 32), w);
    EXPECT_GT(wide.performance(), 0.95 * narrow.performance()) << name;
  }
}

// ---------- Seeded fuzz sweep: random design points, invariants armed ----
//
// Each seed deterministically samples a valid (ArchConfig, Workload) point
// from check::generate_point — the same corpus tools/ara_fuzz minimizes
// from — runs it with the invariant checker enabled, and asserts the
// metamorphic monotonicity relations on top. The seed count is 8 in a
// plain ara_tests run; the `fuzz`-labeled ctest entry re-runs this suite
// with ARA_FUZZ_SEEDS=64 (read at process start, before instantiation).

int fuzz_seed_count() {
  if (const char* s = std::getenv("ARA_FUZZ_SEEDS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 8;
}

class FuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzProperty, RandomPointHoldsInvariantsAndMonotonicity) {
  check::ScopedEnable invariants_on;
  const check::FuzzPoint p = check::generate_point(GetParam());

  auto run_full = [](const core::ArchConfig& cfg,
                     const workloads::Workload& w) {
    return std::move(dse::run(dse::SweepRequest{}.add(cfg, w)).front());
  };

  const auto base = run_full(p.config, p.workload);
  EXPECT_EQ(base.result.jobs, p.workload.invocations);
  EXPECT_GT(base.result.makespan, 0u);
  if (p.config.mode == abc::ExecutionMode::kComposable) {
    EXPECT_EQ(base.result.chains_direct + base.result.chains_spilled,
              p.workload.dfg.chain_edges() * p.workload.invocations);
  }

  // Over-provisioning SPM ports adds capacity only: never materially slower.
  core::ArchConfig ported = p.config;
  ported.island.spm_port_multiplier = 2;
  const auto more_ports = run_full(ported, p.workload);
  EXPECT_GT(more_ports.result.performance(), 0.95 * base.result.performance())
      << "seed " << GetParam() << ": doubling SPM ports lost throughput";

  // More invocations of the same DFG is strictly more work: completing
  // them must dispatch strictly more events. (Makespan itself is NOT
  // monotone in job count — extra jobs can reshape composition decisions
  // into a better packing, the classic multiprocessor scheduling anomaly.)
  workloads::Workload longer = p.workload;
  longer.invocations += 4;
  const auto more_work = run_full(p.config, longer);
  EXPECT_EQ(more_work.result.jobs, longer.invocations);
  EXPECT_GT(more_work.events, base.events)
      << "seed " << GetParam() << ": extra invocations took fewer events";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzProperty,
    ::testing::Range<std::uint64_t>(
        1, static_cast<std::uint64_t>(fuzz_seed_count()) + 1));

}  // namespace
}  // namespace ara
