// Discrete-event simulation kernel.
//
// The whole ara simulator is driven by one Simulator instance: components
// schedule callbacks at absolute or relative ticks, and the kernel executes
// them in (tick, insertion-order) order. Determinism is guaranteed by the
// secondary sequence number: two events at the same tick always run in the
// order they were scheduled, independent of queue internals.
//
// Hot-path design (see DESIGN.md "Event kernel internals"):
//  - Entries are slab-allocated and recycled through an intrusive free
//    list; scheduling an event performs no heap allocation once the slabs
//    are warm (callback captures up to EventCallback::kInlineBytes are
//    stored in place too).
//  - The pending set is a two-level calendar queue: a power-of-two wheel of
//    per-tick FIFO buckets covers the near future (where almost every event
//    of a simulation lands), and a (tick, seq) min-heap holds the overflow
//    beyond the wheel horizon. Events migrate from the heap into the wheel
//    as the window advances, preserving (tick, seq) order exactly.
//
// Self-profiling: every event carries an EventKind tag; the kernel always
// counts dispatches per kind, and — when set_self_profiling(true) — also
// attributes host wall-clock to each kind, so sweeps can report where the
// simulator itself spends time (not just where simulated cycles go).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/event_callback.h"

namespace ara::sim {

/// Callback type executed when an event fires. Events are one-shot.
using EventFn = EventCallback;

/// Thrown by Simulator::schedule_at for `at < now()`: an event in the past
/// can never be dispatched in (tick, seq) order, so the old behaviour of
/// silently clamping it to now() reordered it after events it should have
/// preceded. Scheduling into the past is a caller bug, never valid input.
class ScheduleError : public std::logic_error {
 public:
  explicit ScheduleError(const std::string& what) : std::logic_error(what) {}
};

/// Dispatch classes for self-profiling. Schedulers tag each event; kOther
/// covers anything without a more specific class.
enum class EventKind : std::uint8_t {
  kOther = 0,
  kGamRequest,     // core request arriving at the GAM
  kGamInterrupt,   // completion interrupt delivered to a core
  kJobAdmit,       // ABC job admission / composition attempt
  kTaskComplete,   // ABB task completion handling
  kSlotRelease,    // ABB slot release + pending-work drain
  kJobFinish,      // job completion bookkeeping
  kTraceSampler,   // periodic counter-track trace sampling
};
inline constexpr std::size_t kNumEventKinds = 8;

const char* event_kind_name(EventKind kind);

/// Per-kind dispatch telemetry. `seconds` stays 0 unless self-profiling is
/// enabled on the Simulator.
struct EventKindStats {
  std::uint64_t count = 0;
  double seconds = 0;
};

/// Deterministic discrete-event simulator.
///
/// Usage:
///   Simulator s;
///   s.schedule_in(10, []{ ... });
///   s.run();                      // until the queue drains
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulation time in ticks.
  Tick now() const { return now_; }

  /// Schedule `fn` to run at absolute tick `at`. Throws ScheduleError when
  /// `at < now()` — see ScheduleError for why this is never clamped.
  void schedule_at(Tick at, EventFn fn, EventKind kind = EventKind::kOther);

  /// Schedule `fn` to run `delay` ticks from now.
  void schedule_in(Tick delay, EventFn fn,
                   EventKind kind = EventKind::kOther) {
    schedule_at(now_ + delay, std::move(fn), kind);
  }

  /// Execute the next pending event. Returns false if the queue is empty.
  bool step();

  /// Run until the event queue is empty.
  void run();

  /// Number of events executed so far (useful for runaway detection and
  /// determinism checks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Number of events ever accepted by schedule_at. The kernel conservation
  /// law events_scheduled() == events_processed() + pending() holds at every
  /// point where caller code runs (the invariant checker asserts it).
  std::uint64_t events_scheduled() const { return next_seq_; }

  /// Number of events still pending.
  std::size_t pending() const { return size_; }

  /// Install a synchronous observer called once every `every` dispatched
  /// events, after the event's callback has run. The observer executes
  /// outside event accounting — it is not an event, consumes no seq number
  /// and perturbs no counter or kind statistic — so simulation results are
  /// bit-identical with or without one installed. Single slot (the runtime
  /// invariant checker claims it); `every` must be non-zero.
  void set_observer(std::function<void()> fn, std::uint64_t every);
  void clear_observer();

  /// Enable host wall-clock attribution per event kind. Off by default:
  /// two steady_clock reads per event are measurable on hot sweeps.
  void set_self_profiling(bool enabled) { self_profiling_ = enabled; }
  bool self_profiling() const { return self_profiling_; }

  /// Per-kind dispatch counts (always tracked) and wall-clock seconds
  /// (tracked only while self-profiling), indexed by EventKind.
  const std::array<EventKindStats, kNumEventKinds>& kind_stats() const {
    return kind_stats_;
  }

  /// Events whose callback captures spilled to the heap (larger than
  /// EventCallback::kInlineBytes). A rising value means a scheduler grew a
  /// capture past the inline budget.
  std::uint64_t heap_callbacks() const { return heap_callbacks_; }

 private:
  // Wheel geometry: one bucket per tick over a 4096-tick window. The
  // simulator's schedule pattern is overwhelmingly near-future (DMA chunk
  // completions, link grants, pipeline stages), so nearly every event is a
  // bucket append + pop; only long sleeps (trace samplers, interrupt
  // delivery across an idle stretch) touch the overflow heap.
  static constexpr std::size_t kWheelBits = 12;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr Tick kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kSlabEntries = 256;

  struct Entry {
    Tick at = 0;
    std::uint64_t seq = 0;
    Entry* next = nullptr;  // intrusive: bucket FIFO chain or free list
    EventKind kind = EventKind::kOther;
    EventCallback fn;
  };

  /// Per-tick FIFO; all entries in one bucket share the same tick, so
  /// append-at-tail preserves seq order.
  struct Bucket {
    Entry* head = nullptr;
    Entry* tail = nullptr;
  };

  struct OverflowLater {
    bool operator()(const Entry* a, const Entry* b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->seq > b->seq;
    }
  };

  Entry* alloc_entry();
  void free_entry(Entry* e);
  void bucket_append(Entry* e);
  /// Pull overflow entries that now fall inside the wheel window. Only
  /// called when the target buckets are empty of older-seq entries, so
  /// popping the heap in (tick, seq) order keeps every bucket sorted.
  void migrate_overflow();

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t heap_callbacks_ = 0;
  bool self_profiling_ = false;
  std::array<EventKindStats, kNumEventKinds> kind_stats_{};

  // --- observer (invariant checker) ---
  std::function<void()> observer_;
  std::uint64_t observer_period_ = 0;
  std::uint64_t observer_next_ = 0;

  // --- pending set ---
  std::size_t size_ = 0;         // wheel + overflow
  std::size_t wheel_count_ = 0;  // entries currently in buckets
  /// The wheel window is [wheel_base_, wheel_base_ + kWheelSize); cursor_
  /// is the lowest tick whose bucket may still hold entries.
  Tick wheel_base_ = 0;
  Tick cursor_ = 0;
  std::vector<Bucket> buckets_ = std::vector<Bucket>(kWheelSize);
  std::priority_queue<Entry*, std::vector<Entry*>, OverflowLater> overflow_;

  // --- slab allocator ---
  std::vector<std::unique_ptr<Entry[]>> slabs_;
  Entry* free_list_ = nullptr;
};

}  // namespace ara::sim
