#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace ara::sim {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kOther:
      return "other";
    case EventKind::kGamRequest:
      return "gam_request";
    case EventKind::kGamInterrupt:
      return "gam_interrupt";
    case EventKind::kJobAdmit:
      return "job_admit";
    case EventKind::kTaskComplete:
      return "task_complete";
    case EventKind::kSlotRelease:
      return "slot_release";
    case EventKind::kJobFinish:
      return "job_finish";
    case EventKind::kTraceSampler:
      return "trace_sampler";
  }
  return "?";
}

void Simulator::schedule_at(Tick at, EventFn fn, EventKind kind) {
  if (at < now_) {
    throw ScheduleError("schedule_at(" + std::to_string(at) +
                        "): tick is in the past (now=" +
                        std::to_string(now_) + ")");
  }
  if (!fn) {
    throw ScheduleError("schedule_at: empty callback");
  }
  queue_.push_back(Entry{at, next_seq_++, kind, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulator::set_observer(std::function<void()> fn, std::uint64_t every) {
  if (every == 0) {
    throw ScheduleError("set_observer: period must be non-zero");
  }
  observer_ = std::move(fn);
  observer_period_ = every;
  observer_next_ = events_processed_ + every;
}

void Simulator::clear_observer() {
  observer_ = nullptr;
  observer_period_ = 0;
  observer_next_ = 0;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  {
    // Moved out of the heap and destroyed at the end of this block, so the
    // callback's captures die with their event, before the observer runs.
    const Entry e = std::move(queue_.back());
    queue_.pop_back();
    now_ = e.at;
    ++events_processed_;
    ++kind_stats_[static_cast<std::size_t>(e.kind)].count;
    e.fn();
  }
  if (observer_period_ != 0 && events_processed_ >= observer_next_) {
    observer_next_ = events_processed_ + observer_period_;
    observer_();
  }
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace ara::sim
