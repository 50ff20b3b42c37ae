// Timed drills: each layer primitive called directly on a freshly built
// core::System (or, for the link, a standalone SharedLink), with a seeded
// stream whose call count, payload size and ready-time spacing come from
// the workload's counts. A drill's time includes every layer its call
// reaches (island -> mem -> noc -> link). Streams are generated before the
// clock starts; each drill is repeated on fresh state and the median ns
// per call is reported.
#include <algorithm>
#include <cmath>

#include "perfbench.h"
#include "sim/rng.h"
#include "sim/shared_link.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using ara::Tick;

constexpr int kReps = 3;

std::uint64_t per_point(std::uint64_t total, const Counts& c) {
  return total / std::max<std::uint64_t>(1, c.points);
}

std::uint64_t calls_for(std::uint64_t per_point_count, std::uint64_t lo,
                        std::uint64_t hi) {
  return std::clamp(per_point_count, lo, hi);
}

/// Mean ready-time gap, in simulated cycles, when `events` calls spread
/// over one point's makespan.
Tick spacing(const Counts& c, std::uint64_t events) {
  return std::max<Tick>(
      1, per_point(c.makespan, c) / std::max<std::uint64_t>(1, events));
}

/// Median over kReps of (ns for all calls) / calls. `make` builds fresh
/// untimed state; `call(state, i)` issues call i.
template <typename Make, typename Call>
double time_calls(std::size_t calls, Make make, Call call) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    auto state = make();
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) call(*state, i);
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(calls));
  }
  return median(ns);
}

/// SharedLink::submit on a link prefilled to the workload's deepest
/// interval list. Intervals are 2 cycles long with 5-cycle gaps, so inserts
/// gap-fill without collapsing the list. Like the profiled point (ROADMAP
/// item 1), 43% of inserts land exactly at the tail and the rest a
/// geometric ~51 intervals back.
double link_drill(const Counts& c, std::uint64_t seed) {
  constexpr Tick kStride = 7;
  constexpr ara::Bytes kPayload = 64;
  const std::uint64_t depth = std::clamp<std::uint64_t>(c.intervals_max, 64,
                                                        200000);
  const std::uint64_t calls = calls_for(depth, 20000, 50000);
  ara::sim::Rng rng(mix(seed, 21));
  std::vector<Tick> back(calls);
  for (auto& k : back) {
    k = rng.next_bool(0.43)
            ? 0
            : 1 + static_cast<Tick>(std::log(1.0 - rng.next_double()) /
                                    std::log(1.0 - 1.0 / 51.0));
  }
  struct State {
    ara::sim::SharedLink link{"perfbench.link", 32.0, 1};
    Tick tail = 0;
  };
  return time_calls(
      calls,
      [&] {
        auto s = std::make_unique<State>();
        for (std::uint64_t j = 0; j < depth; ++j) {
          s->link.submit(j * kStride, kPayload);
        }
        s->tail = depth * kStride;
        return s;
      },
      [&](State& s, std::size_t i) {
        const Tick back_ticks = back[i] * kStride;
        const Tick ready = s.tail > back_ticks ? s.tail - back_ticks : 0;
        const Tick done = s.link.submit(ready, kPayload);
        s.tail = std::max(s.tail, done - s.link.pipeline_latency());
      });
}

}  // namespace

DrillResult run_drills(const GridPoint& ref, const Counts& c,
                       std::uint64_t seed, Tracer* tracer) {
  DrillResult d;
  const ara::core::ArchConfig config = ref.spec().to_config();
  const auto wl = ara::workloads::make_benchmark(ref.bench, ref.scale);
  auto fresh = [&config] {
    return std::make_unique<ara::core::System>(config);
  };
  {
    Span s(tracer, "drill.link");
    d.submit_ns = link_drill(c, seed);
  }

  {
    Span s(tracer, "drill.noc");
    const std::uint64_t calls = calls_for(per_point(c.noc_packets, c), 2000,
                                          20000);
    const ara::Bytes bytes = std::max<ara::Bytes>(
        16, c.noc_bytes / std::max<std::uint64_t>(1, c.noc_packets));
    const Tick gap = spacing(c, per_point(c.noc_packets, c));
    const std::uint32_t nodes = config.mesh.width * config.mesh.height;
    ara::sim::Rng rng(mix(seed, 22));
    std::vector<std::pair<ara::NodeId, ara::NodeId>> ends(calls);
    for (auto& [src, dst] : ends) {
      src = static_cast<ara::NodeId>(rng.next_below(nodes));
      dst = static_cast<ara::NodeId>((src + 1 + rng.next_below(nodes - 1)) %
                                     nodes);
    }
    d.transfer_ns = time_calls(calls, fresh,
                               [&](ara::core::System& sys, std::size_t i) {
                                 sys.mesh().transfer(i * gap, ends[i].first,
                                                     ends[i].second, bytes);
                               });
  }

  // MemorySystem::read/write with the DMA engine's chunk, the payload the
  // islands hand to the memory system; addresses revisit a region four
  // times over so the L2 sees reuse.
  {
    Span s(tracer, "drill.mem");
    const std::uint64_t calls = calls_for(per_point(c.dma_transfers, c),
                                          500, 4000);
    const ara::Bytes chunk = fresh()->island(0).dma().chunk_bytes();
    const Tick gap = spacing(c, per_point(c.dma_transfers, c));
    ara::sim::Rng rng(mix(seed, 23));
    std::vector<ara::Addr> offsets(calls);
    for (auto& off : offsets) off = rng.next_below(calls / 4 + 1) * chunk;
    struct MemState {
      std::unique_ptr<ara::core::System> sys;
      ara::Addr base = 0;
    };
    auto make = [&] {
      auto st = std::make_unique<MemState>();
      st->sys = fresh();
      st->base = st->sys->memory().allocate((calls / 4 + 1) * chunk);
      return st;
    };
    auto access = [&](MemState& st, std::size_t i, bool write) {
      auto& sys = *st.sys;
      const auto node = sys.island_node(
          static_cast<ara::IslandId>(i % sys.island_count()));
      if (write) {
        sys.memory().write(i * gap, node, st.base + offsets[i], chunk);
      } else {
        sys.memory().read(i * gap, node, st.base + offsets[i], chunk);
      }
    };
    d.read_ns = time_calls(calls, make, [&](MemState& st, std::size_t i) {
      access(st, i, false);
    });
    d.write_ns = time_calls(calls, make, [&](MemState& st, std::size_t i) {
      access(st, i, true);
    });
  }

  // Island::dma_load of the workload's task inputs into random ABB slots
  // of island 0.
  {
    Span s(tracer, "drill.dma_load");
    ara::Bytes in_bytes = 0;
    std::uint64_t loads = 0;
    for (std::size_t i = 0; i < wl.dfg.size(); ++i) {
      const auto& n = wl.dfg.node(static_cast<ara::TaskId>(i));
      if (n.mem_in_bytes > 0) {
        in_bytes += n.mem_in_bytes;
        ++loads;
      }
    }
    const ara::Bytes bytes = loads == 0 ? 4096 : in_bytes / loads;
    const std::uint64_t calls = calls_for(per_point(c.tasks_started, c), 50,
                                          200);
    const Tick gap = spacing(c, per_point(c.tasks_started, c));
    const std::uint32_t abbs = fresh()->island(0).num_abbs();
    ara::sim::Rng rng(mix(seed, 24));
    std::vector<std::pair<ara::AbbId, ara::Addr>> stream(calls);
    for (auto& [abb, off] : stream) {
      abb = static_cast<ara::AbbId>(rng.next_below(abbs));
      off = rng.next_below(calls / 4 + 1) * bytes;
    }
    struct LoadState {
      std::unique_ptr<ara::core::System> sys;
      ara::Addr base = 0;
    };
    d.dma_load_ns = time_calls(
        calls,
        [&] {
          auto st = std::make_unique<LoadState>();
          st->sys = fresh();
          st->base = st->sys->memory().allocate((calls / 4 + 1) * bytes);
          return st;
        },
        [&](LoadState& st, std::size_t i) {
          st.sys->island(0).dma_load(i * gap, st.base + stream[i].second,
                                     bytes, stream[i].first);
        });
  }

  // Island::chain between two ABBs of one 41-stop ring island (3 islands,
  // 40 ABBs each plus the DMA stop), with the workload's chain payload.
  {
    Span s(tracer, "drill.chain");
    GridPoint ring = ref;
    ring.islands = 3;
    if (ring.net == 0) ring.net = 2;  // proxy reference: 1-ring 32B
    const ara::core::ArchConfig ring_config = ring.spec().to_config();
    ara::Bytes chain_bytes = 0;
    std::uint64_t edges = 0;
    for (std::size_t i = 0; i < wl.dfg.size(); ++i) {
      const auto& n = wl.dfg.node(static_cast<ara::TaskId>(i));
      if (!n.preds.empty()) {
        chain_bytes += n.chain_in_bytes;
        ++edges;
      }
    }
    const ara::Bytes bytes = edges == 0 ? 4096 : chain_bytes / edges;
    const std::uint64_t chains =
        per_point(c.chains_direct + c.chains_spilled, c);
    const std::uint64_t calls = calls_for(chains, 100, 500);
    const Tick gap = spacing(c, chains);
    auto fresh_ring = [&ring_config] {
      return std::make_unique<ara::core::System>(ring_config);
    };
    const std::uint32_t abbs = fresh_ring()->island(0).num_abbs();
    ara::sim::Rng rng(mix(seed, 25));
    std::vector<std::pair<ara::AbbId, ara::AbbId>> pairs(calls);
    for (auto& [a, b] : pairs) {
      a = static_cast<ara::AbbId>(rng.next_below(abbs));
      b = static_cast<ara::AbbId>((a + 1 + rng.next_below(abbs - 1)) % abbs);
    }
    d.chain_ns = time_calls(calls, fresh_ring,
                            [&](ara::core::System& sys, std::size_t i) {
                              auto& isl = sys.island(0);
                              ara::island::Island::chain(
                                  i * gap, isl, pairs[i].first, isl,
                                  pairs[i].second, bytes);
                            });
  }
  return d;
}

}  // namespace perfbench
