// TraceCollector: records task-level execution spans and exports them in
// the Chrome tracing JSON format (chrome://tracing, Perfetto), with one
// "process" per island and one "thread" per ABB slot — a visual timeline
// of how the ABC composes and schedules virtual accelerators.
//
// Beyond duration spans and instants the collector supports the richer
// Chrome trace-event vocabulary the viewers understand:
//  - metadata ("M") events naming processes and threads,
//  - counter-track ("C") samples (queue depths, link utilization),
//  - flow events ("s"/"t"/"f") that draw arrows following a logical
//    payload — e.g. one DMA transfer across SPM -> island net -> memory,
//  - a bounded event buffer with an explicit dropped-events counter so a
//    runaway trace degrades gracefully instead of exhausting host memory.
//
// Threading: single-owner state, deliberately unannotated (see
// common/thread_annotations.h conventions). A TraceCollector is owned by
// one core::System and mutated only from that System's thread; parallel
// sweeps give every worker its own System, so the buffer is never shared.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace ara::sim {

/// Fixed trace pids for the non-island "processes"; islands use their own
/// IslandId as pid, so these start well above any plausible island count.
inline constexpr std::uint32_t kTracePidMem = 9000;
inline constexpr std::uint32_t kTracePidNoc = 9001;
inline constexpr std::uint32_t kTracePidGam = 9002;
inline constexpr std::uint32_t kTracePidSim = 9003;

/// Trace tid reserved for an island's DMA-engine track (ABB slots use their
/// AbbId as tid).
inline constexpr std::uint32_t kTraceTidDma = 999;

class TraceCollector {
 public:
  /// A complete span: [start, end) on (pid, tid).
  void record_span(const std::string& name, std::uint32_t pid,
                   std::uint32_t tid, Tick start, Tick end,
                   const std::string& category);

  /// An instantaneous event (e.g. job admitted, chain spilled) on a
  /// specific (pid, tid) — the slot is no longer hardcoded to 0.
  void record_instant(const std::string& name, std::uint32_t pid,
                      std::uint32_t tid, Tick at, const std::string& category);

  /// One counter-track sample: `track` names the counter, `series` the
  /// value's key inside it (rendered as a stacked area in the viewers).
  void record_counter(const std::string& track, std::uint32_t pid, Tick at,
                      const std::string& series, double value);

  /// Flow events: begin_flow() returns an id; step_flow()/end_flow() with
  /// the same id draw arrows through every recorded point. Viewers bind
  /// each point to the enclosing slice on its (pid, tid) at that timestamp.
  std::uint64_t begin_flow(const std::string& name, std::uint32_t pid,
                           std::uint32_t tid, Tick at,
                           const std::string& category);
  void step_flow(std::uint64_t flow, const std::string& name,
                 std::uint32_t pid, std::uint32_t tid, Tick at,
                 const std::string& category);
  void end_flow(std::uint64_t flow, const std::string& name, std::uint32_t pid,
                std::uint32_t tid, Tick at, const std::string& category);

  /// Metadata ("M") events naming a process / thread in the viewer.
  /// Metadata is exempt from the capacity cap.
  void name_process(std::uint32_t pid, const std::string& name);
  void name_thread(std::uint32_t pid, std::uint32_t tid,
                   const std::string& name);

  /// Bound the event buffer: once `max_events` non-metadata events are
  /// buffered, further records are counted in dropped() instead of stored.
  void set_capacity(std::size_t max_events) { capacity_ = max_events; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Chrome trace-event JSON (array format; 1 tick = 1 us in the viewer).
  /// When events were dropped, a final instant on kTracePidSim carries the
  /// dropped count in its args.
  void write_json(std::ostream& os) const;

 private:
  enum class Phase : std::uint8_t {
    kSpan,
    kInstant,
    kCounter,
    kFlowStart,
    kFlowStep,
    kFlowEnd,
    kMetaProcess,
    kMetaThread,
  };

  struct Event {
    Phase phase;
    std::string name;
    std::string category;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    Tick start = 0;
    Tick end = 0;  // == start for non-spans
    /// Counter series / metadata name payload.
    std::string arg_name;
    double arg_value = 0;
    std::uint64_t flow_id = 0;
  };

  /// Append respecting the capacity cap; metadata bypasses the cap.
  void push(Event e);

  std::vector<Event> events_;
  std::size_t capacity_ = 1u << 20;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_flow_ = 1;
};

}  // namespace ara::sim
