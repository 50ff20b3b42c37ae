// ara_fuzz: deterministic config/workload fuzzer for the simulator.
//
// For every seed in [--seed-base, --seed-base + --seeds):
//  1. kernel replica check — a randomized schedule (including events that
//     schedule follow-up events) is dispatched through the production
//     Simulator and through an independent std::priority_queue reference;
//     their (id, tick) dispatch checksums must match exactly;
//  2. design-point cross-check — check::generate_point samples a valid
//     random ArchConfig + Workload and check::cross_check runs it with
//     runtime invariants enabled at jobs 1/2/8 plus a cached-vs-fresh
//     ResultCache pass, requiring bit-identical results throughout.
//
// A failing seed is greedily minimized (halving invocation count, DFG
// size, then island count while the failure reproduces) and written as a
// repro file under --repro-dir. Exit status 1 when any seed fails.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/fuzz.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace {

using ara::Tick;

/// Reference implementation of the dispatch-order contract: std::function
/// callbacks on a (tick, seq) std::priority_queue, written independently of
/// sim::Simulator. Kept here (not in the library) because its only job is
/// to disagree with the production kernel when one of them breaks.
class LegacyKernel {
 public:
  Tick now() const { return now_; }

  void schedule_at(Tick at, std::function<void()> fn) {
    queue_.push(Entry{at, next_seq_++, std::move(fn)});
  }

  void run() {
    while (!queue_.empty()) {
      Entry e = queue_.top();
      queue_.pop();
      now_ = e.at;
      ++processed_;
      e.fn();
    }
  }

  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Entry {
    Tick at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

/// FNV-1a over the (event id, dispatch tick) sequence of a randomized
/// schedule. Both kernels run the identical script: `initial` root events
/// at random ticks (most near, some tens of thousands of ticks out), and
/// every event deterministically decides — from its id alone — whether to
/// schedule up to two follow-ups relative to now().
template <class Kernel>
std::uint64_t dispatch_checksum(std::uint64_t seed, int initial) {
  Kernel kernel;
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };

  std::function<void(std::uint64_t, int)> arm = [&](std::uint64_t id,
                                                    int depth) {
    mix(id);
    mix(kernel.now());
    if (depth >= 3) return;
    const std::uint64_t r = id * 0x9e3779b97f4a7c15ull;
    if ((r >> 8) % 10 < 4) {
      const Tick delay = 1 + static_cast<Tick>((r >> 16) % 6000);
      const std::uint64_t child = id * 31 + 7;
      kernel.schedule_at(kernel.now() + delay,
                         [&, child, depth] { arm(child, depth + 1); });
    }
    if ((r >> 40) % 10 < 2) {
      const std::uint64_t child = id * 37 + 11;
      kernel.schedule_at(kernel.now(),  // same-tick: seq order must hold
                         [&, child, depth] { arm(child, depth + 1); });
    }
  };

  ara::sim::Rng rng(seed);
  for (int i = 0; i < initial; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
    // Mostly near-future, with a far-future tail, so events scheduled
    // early and late interleave at the same ticks.
    const Tick at = rng.next_bool(0.85) ? rng.next_below(3000)
                                        : 3000 + rng.next_below(40000);
    kernel.schedule_at(at, [&, id] { arm(id, 0); });
  }
  kernel.run();
  mix(kernel.events_processed());
  return h;
}

struct Options {
  std::uint64_t seeds = 32;
  std::uint64_t seed_base = 1;
  std::string repro_dir = "fuzz_repros";
  int kernel_events = 1500;
  bool verbose = false;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

int usage(int code) {
  std::cout
      << "usage: ara_fuzz [options]\n"
         "  --seeds N       seeds to fuzz (default 32)\n"
         "  --seed-base N   first seed (default 1)\n"
         "  --repro-dir D   directory for failing-seed repro files\n"
         "                  (default fuzz_repros)\n"
         "  --verbose       per-seed progress\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--seeds") {
      if (!parse_u64(value(), &opt.seeds)) return usage(2);
    } else if (arg == "--seed-base") {
      if (!parse_u64(value(), &opt.seed_base)) return usage(2);
    } else if (arg == "--repro-dir") {
      const char* v = value();
      if (v == nullptr) return usage(2);
      opt.repro_dir = v;
    } else {
      std::cerr << "ara_fuzz: unknown flag '" << arg << "'\n";
      return usage(2);
    }
  }

  namespace check = ara::check;
  std::uint64_t kernel_failures = 0;
  std::uint64_t point_failures = 0;

  for (std::uint64_t s = opt.seed_base; s < opt.seed_base + opt.seeds; ++s) {
    const check::FuzzLimits full{};
    check::FuzzPoint point = check::generate_point(s, full);

    // Layer 1: dispatch-order differential against the legacy kernel.
    const std::uint64_t new_sum =
        dispatch_checksum<ara::sim::Simulator>(s, opt.kernel_events);
    const std::uint64_t old_sum =
        dispatch_checksum<LegacyKernel>(s, opt.kernel_events);
    if (new_sum != old_sum) {
      ++kernel_failures;
      std::cerr << "seed " << s << ": KERNEL DIVERGENCE — simulator "
                << std::hex << new_sum << " vs legacy replica " << old_sum
                << std::dec << "\n";
    }

    // Layer 2: full-system differential with invariants on.
    std::string failure = check::cross_check(point);
    if (failure.empty()) {
      if (opt.verbose) {
        std::cout << "seed " << s << ": ok (" << point.config.num_islands
                  << " islands, " << point.workload.dfg.size() << " tasks, "
                  << point.workload.invocations << " invocations)\n";
      }
      continue;
    }

    // Greedy minimization: keep halving one limit at a time while the
    // failure still reproduces; the repro file records the smallest point.
    ++point_failures;
    check::FuzzLimits lim = full;
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      for (int knob = 0; knob < 3; ++knob) {
        check::FuzzLimits trial = lim;
        std::uint32_t* field =
            knob == 0 ? &trial.max_invocations
                      : (knob == 1 ? &trial.max_tasks : &trial.max_islands);
        const std::uint32_t floor = knob == 1 ? 3u : (knob == 0 ? 2u : 1u);
        if (*field / 2 < floor || *field / 2 == *field) continue;
        *field /= 2;
        check::FuzzPoint smaller = check::generate_point(s, trial);
        const std::string msg = check::cross_check(smaller);
        if (!msg.empty()) {
          lim = trial;
          point = std::move(smaller);
          failure = msg;
          shrunk = true;
        }
      }
    }

    std::error_code ec;
    std::filesystem::create_directories(opt.repro_dir, ec);
    const std::string path =
        opt.repro_dir + "/fuzz-" + std::to_string(s) + ".txt";
    std::ofstream repro(path);
    repro << check::repro_text(point, lim, failure);
    std::cerr << "seed " << s << ": FAIL — " << failure << "\n"
              << "  minimized to " << point.config.num_islands
              << " islands / " << point.workload.dfg.size() << " tasks / "
              << point.workload.invocations << " invocations; repro: "
              << path << "\n";
  }

  std::cout << "ara_fuzz: " << opt.seeds << " seeds, "
            << (opt.seeds - point_failures) << " clean, " << point_failures
            << " point failures, " << kernel_failures
            << " kernel divergences\n";
  return (point_failures + kernel_failures) == 0 ? 0 : 1;
}
