#include "sim/event_queue.h"

#include <chrono>
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

Simulator::~Simulator() = default;

Simulator::Entry* Simulator::alloc_entry() {
  if (free_list_ == nullptr) {
    slabs_.push_back(std::make_unique<Entry[]>(kSlabEntries));
    Entry* slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabEntries; ++i) {
      slab[i].next = free_list_;
      free_list_ = &slab[i];
    }
  }
  Entry* e = free_list_;
  free_list_ = e->next;
  e->next = nullptr;
  return e;
}

void Simulator::free_entry(Entry* e) {
  e->fn.reset();  // release heap captures before the entry idles in the pool
  e->next = free_list_;
  free_list_ = e;
}

void Simulator::bucket_append(Entry* e) {
  Bucket& b = buckets_[e->at & kWheelMask];
  e->next = nullptr;
  if (b.tail == nullptr) {
    b.head = b.tail = e;
  } else {
    b.tail->next = e;
    b.tail = e;
  }
}

void Simulator::migrate_overflow() {
  // The heap pops in (tick, seq) order and direct appends always carry a
  // larger seq than anything migrated earlier (seq is global and
  // monotonic), so bucket FIFOs stay seq-sorted per tick.
  const Tick end = wheel_base_ + kWheelSize;
  while (!overflow_.empty() && overflow_.top()->at < end) {
    Entry* e = overflow_.top();
    overflow_.pop();
    bucket_append(e);
    ++wheel_count_;
  }
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
  if (!fn.is_inline()) ++heap_callbacks_;
  Entry* e = alloc_entry();
  e->at = at;
  e->seq = next_seq_++;
  e->kind = kind;
  e->fn = std::move(fn);
  ++size_;
  // Invariant: wheel_base_ <= now_ whenever caller code runs (the window
  // only moves in step(), to the tick being dispatched), so `at` is never
  // below the window and the unsigned subtraction is safe.
  if (at - wheel_base_ < kWheelSize) {
    bucket_append(e);
    ++wheel_count_;
  } else {
    overflow_.push(e);
  }
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
  if (size_ == 0) return false;
  if (wheel_count_ == 0) {
    // Everything pending is beyond the window: jump the window to the next
    // event instead of sliding across the gap one bucket at a time.
    wheel_base_ = cursor_ = overflow_.top()->at;
    migrate_overflow();
  }
  Bucket* b = &buckets_[cursor_ & kWheelMask];
  while (b->head == nullptr) {
    ++cursor_;
    b = &buckets_[cursor_ & kWheelMask];
  }
  Entry* e = b->head;
  b->head = e->next;
  if (b->head == nullptr) b->tail = nullptr;
  --wheel_count_;
  --size_;

  now_ = e->at;
  if (now_ > wheel_base_) {
    // Slide the window so it always covers [now, now + kWheelSize): one
    // heap-top comparison per time advance keeps "near future" relative to
    // the current tick, not to wherever the window last jumped.
    wheel_base_ = now_;
    migrate_overflow();
  }
  ++events_processed_;
  auto& stats = kind_stats_[static_cast<std::size_t>(e->kind)];
  ++stats.count;
  if (self_profiling_) {
    // Self-profiling only: measured seconds land in EventKindStats.seconds,
    // which is host telemetry and never feeds simulated time or results.
    const auto t0 = std::chrono::steady_clock::now();  // ara-lint: allow(no-wall-clock)
    e->fn();
    stats.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // ara-lint: allow(no-wall-clock)
            .count();
  } else {
    e->fn();
  }
  free_entry(e);
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
