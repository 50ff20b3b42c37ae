// Discrete-event simulation kernel.
//
// The whole ara simulator is driven by one Simulator instance: components
// schedule callbacks at absolute or relative ticks, and the kernel executes
// them in (tick, insertion-order) order. Determinism is guaranteed by the
// secondary sequence number: two events at the same tick always run in the
// order they were scheduled, independent of queue internals.
//
// The pending set is one binary min-heap on (tick, seq) (DESIGN.md "Event
// kernel"). A design point dispatches a few hundred to a few thousand
// events, each of which makes many link reservations, so the kernel is a
// negligible share of a run and is kept as simple as the contract allows.
//
// Every event carries an EventKind tag and the kernel counts dispatches per
// kind (kind_stats(), exported as sim.events.<kind>). The kernel never reads
// a host clock; host time is measured end to end and per layer outside it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace ara::sim {

/// Callback type executed when an event fires. Events are one-shot.
using EventFn = std::function<void()>;

/// Thrown by Simulator::schedule_at for `at < now()`: an event in the past
/// can never be dispatched in (tick, seq) order, so the old behaviour of
/// silently clamping it to now() reordered it after events it should have
/// preceded. Scheduling into the past is a caller bug, never valid input.
class ScheduleError : public std::logic_error {
 public:
  explicit ScheduleError(const std::string& what) : std::logic_error(what) {}
};

/// Dispatch classes. Schedulers tag each event; kOther covers anything
/// without a more specific class.
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

/// Per-kind dispatch telemetry (deterministic).
struct EventKindStats {
  std::uint64_t count = 0;
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

  /// Current simulation time in ticks.
  Tick now() const { return now_; }

  /// Schedule `fn` to run at absolute tick `at`. Throws ScheduleError when
  /// `at < now()` — see ScheduleError for why this is never clamped — or
  /// when `fn` is empty.
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
  std::size_t pending() const { return queue_.size(); }

  /// Install a synchronous observer called once every `every` dispatched
  /// events, after the event's callback has run. The observer executes
  /// outside event accounting — it is not an event, consumes no seq number
  /// and perturbs no counter or kind statistic — so simulation results are
  /// bit-identical with or without one installed. Single slot (the runtime
  /// invariant checker claims it); `every` must be non-zero.
  void set_observer(std::function<void()> fn, std::uint64_t every);
  void clear_observer();

  /// Per-kind dispatch counts, indexed by EventKind.
  const std::array<EventKindStats, kNumEventKinds>& kind_stats() const {
    return kind_stats_;
  }

 private:
  struct Entry {
    Tick at = 0;
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kOther;
    EventFn fn;
  };

  /// Heap comparator: the std::*_heap algorithms keep the greatest entry at
  /// the front, so "greater" must mean "runs earlier".
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::array<EventKindStats, kNumEventKinds> kind_stats_{};

  // --- observer (invariant checker) ---
  std::function<void()> observer_;
  std::uint64_t observer_period_ = 0;
  std::uint64_t observer_next_ = 0;

  /// Pending events, a binary heap ordered by Later.
  std::vector<Entry> queue_;
};

}  // namespace ara::sim
