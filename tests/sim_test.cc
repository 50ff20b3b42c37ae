// Unit tests for the discrete-event kernel, RNG, stats and SharedLink.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/shared_link.h"
#include "sim/stats.h"

namespace ara::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Simulator, SameTickRunsInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(5, [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    ++fired;
    s.schedule_in(5, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 6u);
}

TEST(Simulator, CountsEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 7u);
}

// Regression: schedule_at used to clamp past ticks to now(), silently
// reordering the event after same-tick events it should have preceded.
// It is now a checked error.
TEST(Simulator, SchedulePastThrows) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.run();
  ASSERT_EQ(s.now(), 10u);
  EXPECT_THROW(s.schedule_at(9, [] {}), ScheduleError);
  EXPECT_THROW(s.schedule_at(0, [] {}), ScheduleError);
  EXPECT_NO_THROW(s.schedule_at(10, [] {}));  // now() itself is fine
  s.run();
  EXPECT_EQ(s.events_processed(), 2u);
}

// An event thrown far beyond the calendar-queue wheel horizon lands in the
// overflow heap and must migrate back into the wheel, in order, as the
// window slides forward. 4096 is the wheel size; use several multiples.
TEST(Simulator, FarFutureEventsMigrateFromOverflowInOrder) {
  Simulator s;
  std::vector<Tick> fired;
  const std::vector<Tick> ticks = {1,     5000,  4096,  100000, 4095,
                                   12288, 99999, 65536, 3,      8191};
  for (Tick t : ticks) {
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  s.run();
  ASSERT_EQ(fired.size(), ticks.size());
  std::vector<Tick> expected = ticks;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.now(), 100000u);
}

// Same-tick events split between the wheel and the overflow heap (scheduled
// before and after the window covered the tick) must still run in schedule
// order once they meet in the same bucket.
TEST(Simulator, OverflowAndWheelInterleaveBySeq) {
  Simulator s;
  std::vector<int> order;
  // Tick 5000 is beyond the initial window: goes to overflow.
  s.schedule_at(5000, [&] { order.push_back(0); });
  // Advance time so 5000 falls inside the wheel window, then schedule two
  // more events at the same tick, which append to the (migrated) bucket.
  s.schedule_at(2000, [&] {
    s.schedule_at(5000, [&] { order.push_back(1); });
    s.schedule_at(5000, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Randomized stress: the kernel must agree with a trivial reference model
// (a stable-sorted (tick, seq) list) on the exact dispatch sequence,
// including events scheduled from within events and ticks far past the
// wheel horizon.
TEST(Simulator, RandomStressMatchesReferenceModel) {
  using Ref = std::pair<Tick, std::uint64_t>;  // (tick, insertion seq)

  // Pass 1: everything scheduled up front with explicit sequence tags;
  // check the kernel's order against a min-heap reference exactly.
  Simulator s;
  Rng rng(999);
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  std::vector<Ref> fired;
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    Tick at = 0;
    switch (rng.next_below(3)) {
      case 0: at = rng.next_below(64); break;       // near buckets
      case 1: at = rng.next_below(4096); break;     // whole wheel window
      default: at = rng.next_below(100000); break;  // overflow heap
    }
    ref.push({at, seq});
    s.schedule_at(at, [&fired, at, seq] { fired.push_back({at, seq}); });
  }
  s.run();
  ASSERT_EQ(fired.size(), 2000u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], ref.top()) << "dispatch " << i << " out of order";
    ref.pop();
  }

  // Pass 2: events that reschedule successors at random horizons while the
  // window slides. Dispatch ticks must be monotonically non-decreasing and
  // the queue must drain completely.
  Simulator s2;
  Rng rng2(12345);
  auto random_delay = [&rng2]() -> Tick {
    switch (rng2.next_below(4)) {
      case 0: return rng2.next_below(8);             // same/near tick
      case 1: return rng2.next_below(512);           // inside the wheel
      case 2: return 4096 + rng2.next_below(4096);   // just past horizon
      default: return rng2.next_below(50000);        // far future
    }
  };
  std::vector<Tick> when;
  std::uint64_t to_spawn = 400;
  std::function<void()> body = [&] {
    when.push_back(s2.now());
    if (to_spawn > 0) {
      --to_spawn;
      s2.schedule_in(random_delay(), body);
    }
  };
  for (int i = 0; i < 100; ++i) s2.schedule_at(random_delay(), body);
  s2.run();
  for (std::size_t i = 1; i < when.size(); ++i) {
    EXPECT_LE(when[i - 1], when[i]) << "time went backwards at dispatch " << i;
  }
  EXPECT_EQ(s2.pending(), 0u);
  EXPECT_EQ(s2.events_processed(), when.size());
  EXPECT_EQ(when.size(), 500u);  // 100 roots + 400 spawned
}

// Callback small-buffer optimization telemetry: small captures stay inline,
// oversized captures are counted as heap spills.
TEST(Simulator, CountsHeapCallbacks) {
  Simulator s;
  int x = 0;
  s.schedule_at(1, [&x] { ++x; });  // one pointer: inline
  s.run();
  EXPECT_EQ(s.heap_callbacks(), 0u);

  struct Fat {
    char pad[2 * EventCallback::kInlineBytes] = {};
  };
  Fat fat;
  s.schedule_at(s.now(), [fat, &x] { x += static_cast<int>(sizeof(fat)); });
  s.run();
  EXPECT_EQ(s.heap_callbacks(), 1u);
  EXPECT_GT(x, 0);
}

// The self-profiling switch must not change dispatch counts, only add
// wall-clock attribution.
TEST(Simulator, KindStatsCountDispatches) {
  Simulator s;
  s.schedule_at(1, [] {}, EventKind::kGamRequest);
  s.schedule_at(2, [] {}, EventKind::kGamRequest);
  s.schedule_at(3, [] {}, EventKind::kTaskComplete);
  s.run();
  const auto& stats = s.kind_stats();
  EXPECT_EQ(stats[static_cast<std::size_t>(EventKind::kGamRequest)].count, 2u);
  EXPECT_EQ(stats[static_cast<std::size_t>(EventKind::kTaskComplete)].count,
            1u);
  // Not self-profiling: no wall-clock attribution.
  EXPECT_EQ(stats[static_cast<std::size_t>(EventKind::kGamRequest)].seconds,
            0.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() != b.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NextInSingletonRange) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.next_in(42, 42), 42);
    EXPECT_EQ(r.next_in(-7, -7), -7);
  }
}

// Regression: `hi - lo + 1` used to wrap for lo > hi, silently sampling from
// nearly the whole int64 domain instead of failing.
TEST(Rng, NextInRejectsInvertedRange) {
  Rng r(19);
  EXPECT_THROW(r.next_in(3, -3), ConfigError);
  EXPECT_THROW(r.next_in(1, 0), ConfigError);
}

TEST(SharedLink, LatencyOnlyForZeroQueue) {
  SharedLink link("l", 16.0, 5);
  // 16 bytes at 16 B/cyc: 1 cycle occupancy + 5 latency.
  EXPECT_EQ(link.submit(0, 16), 6u);
}

TEST(SharedLink, SerializesBackToBackTransfers) {
  SharedLink link("l", 16.0, 0);
  EXPECT_EQ(link.submit(0, 64), 4u);
  EXPECT_EQ(link.submit(0, 64), 8u);   // queued behind the first
  EXPECT_EQ(link.submit(100, 64), 104u);  // idle gap, then serves
}

TEST(SharedLink, FractionalBandwidthRoundsUp) {
  SharedLink link("l", 10.0, 0);
  EXPECT_EQ(link.submit(0, 64), 7u);  // ceil(64/10) = 7
}

TEST(SharedLink, ZeroBytesCostsOnlyLatency) {
  SharedLink link("l", 8.0, 3);
  EXPECT_EQ(link.submit(10, 0), 13u);
  EXPECT_EQ(link.total_bytes(), 0u);
}

TEST(SharedLink, TracksUtilizationAndBytes) {
  SharedLink link("l", 16.0, 0);
  link.submit(0, 160);  // 10 cycles busy
  EXPECT_EQ(link.total_bytes(), 160u);
  EXPECT_EQ(link.busy_cycles(), 10u);
  EXPECT_DOUBLE_EQ(link.utilization(20), 0.5);
  EXPECT_EQ(link.transfers(), 1u);
}

TEST(SharedLink, RejectsZeroBandwidth) {
  EXPECT_THROW(SharedLink("bad", 0.0, 1), std::runtime_error);
}

// Compaction: once a link holds more than 4096 intervals, every interval
// ending at or before cutoff = high watermark - 2^21 is folded into one
// blocker [first start, min(cutoff, next start)). Long runs depend on this
// rule, so it is pinned exactly.
constexpr Tick kCompactHorizon = Tick{1} << 21;

TEST(SharedLinkCompaction, FoldsOldIntervalsIntoBlockerEndingAtCutoff) {
  SharedLink link("l", 1.0, 0);
  const Tick cutoff = 10'002;
  link.submit(kCompactHorizon + cutoff, 1);  // sets the high watermark
  // One-cycle intervals [4i, 4i + 1) with free gaps between them.
  for (Tick i = 0; i < 4095; ++i) ASSERT_EQ(link.submit(4 * i, 1), 4 * i + 1);
  EXPECT_EQ(link.reservation_intervals(), 4096u);  // at the threshold
  link.submit(4 * 4095, 1);  // the 4097th interval triggers compaction
  // Intervals ending at or before 10002 are i = 0..2500; the next one
  // starts at 10004, after the cutoff, so the blocker is [0, 10002).
  EXPECT_EQ(link.reservation_intervals(), 4097u - 2501u + 1u);
  EXPECT_EQ(link.busy_cycles(), 4097u);  // compaction books no cycles

  // Ready inside the old gap [1, 4), a payload now lands after the blocker,
  // in the two free cycles [10002, 10004) between it and the next interval.
  EXPECT_EQ(link.submit(1, 2), cutoff + 2);
  // The payload merges with the blocker and with the interval after it.
  EXPECT_EQ(link.reservation_intervals(), 4097u - 2501u);
  EXPECT_EQ(link.submit(1, 1), 10'005u + 1u);  // next free cycle is 10005
}

TEST(SharedLinkCompaction, BlockerEndsAtStartOfIntervalStraddlingCutoff) {
  SharedLink link("l", 1.0, 0);
  const Tick cutoff = 10'001;
  link.submit(kCompactHorizon + cutoff, 1);
  // Two-cycle intervals [4i, 4i + 2); [10000, 10002) straddles the cutoff.
  for (Tick i = 0; i < 4096; ++i) link.submit(4 * i, 2);
  // Intervals i = 0..2499 end at or before the cutoff. The blocker stops
  // where the straddling interval starts, [0, 10000), and stays a separate
  // interval next to it.
  EXPECT_EQ(link.reservation_intervals(), 4097u - 2500u + 1u);
  EXPECT_EQ(link.submit(3, 2), 10'004u);  // lands in [10002, 10004)
  // It joins [10000, 10002) and [10004, 10006), not the blocker.
  EXPECT_EQ(link.reservation_intervals(), 4097u - 2500u);
}

TEST(SharedLinkCompaction, NeverFiresBelowHorizonOrWithNothingOld) {
  SharedLink below("below", 1.0, 0);
  for (Tick i = 0; i < 5000; ++i) below.submit(4 * i, 1);
  EXPECT_EQ(below.reservation_intervals(), 5000u);  // watermark < 2^21

  SharedLink fresh("fresh", 1.0, 0);
  fresh.submit(kCompactHorizon, 1);  // cutoff 0: no interval ends by then
  for (Tick i = 0; i < 5000; ++i) fresh.submit(4 * i + 1, 1);
  EXPECT_EQ(fresh.reservation_intervals(), 5001u);
}

TEST(Stats, CounterAccumulates) {
  StatRegistry reg;
  auto& c = reg.counter("a.b");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.counter("a.b").value(), 5u);  // same object
}

TEST(Stats, AccumulatorTracksMoments) {
  StatRegistry reg;
  auto& a = reg.accumulator("x");
  a.add(1.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.sum(), 4.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(Stats, PrefixSums) {
  StatRegistry reg;
  reg.counter("net.a").inc(1);
  reg.counter("net.b").inc(2);
  reg.counter("other").inc(10);
  EXPECT_EQ(reg.counter_sum_by_prefix("net."), 3u);
}

TEST(Stats, HistogramPercentiles) {
  StatRegistry reg;
  auto& h = reg.histogram("lat", 10, 10);
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 10.0);
  EXPECT_EQ(h.max_seen(), 99u);
}

TEST(Stats, HistogramOverflowBucket) {
  StatRegistry reg;
  auto& h = reg.histogram("lat", 10, 4);
  h.record(1000000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

}  // namespace
}  // namespace ara::sim
