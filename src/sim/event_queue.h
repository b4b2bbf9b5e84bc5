// The discrete-event queue.
//
// Events run in (time, scheduling sequence) order: two events scheduled
// for the same instant run in scheduling order, independent of heap
// internals.  Closures live in a slot table; the binary heap holds only
// small keys naming a slot and its generation.  Cancel destroys the
// closure at once and frees the slot; the key left behind is stale and
// is skipped when it reaches the head, or dropped by a rebuild once stale
// keys outnumber live ones, so the heap stays proportional to the live
// events.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/sim_time.h"

namespace legion {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using EventFn = std::function<void()>;

  // Schedules `fn` at absolute time `when`; returns a cancellable id.
  // `label` is an optional static "component/kind" string and `enqueued`
  // the scheduling instant -- both pure accounting carried for the
  // kernel profiler, with no effect on ordering or execution.
  EventId Schedule(SimTime when, EventFn fn, const char* label = nullptr,
                   SimTime enqueued = SimTime::Zero());

  // Cancels a pending event and destroys its closure before returning.
  // Returns false if the event already ran or was cancelled, or the id
  // was never issued.  The closure's destructor may schedule or cancel.
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Time of the earliest live event; SimTime::Max() when empty.
  SimTime NextTime();

  // Pops and returns the earliest live event.  Pre: !empty().
  struct Popped {
    SimTime when;
    EventFn fn;
    const char* label;  // nullptr when the scheduler left it unlabeled
    SimTime enqueued;
  };
  Popped Pop();

 private:
  // An id is (generation << 32 | slot + 1), so no id is 0 and an id whose
  // slot has since been freed or reused no longer matches it (until the
  // slot's 32-bit generation wraps, after 2^32 reuses).
  struct Key {
    SimTime when;
    std::uint64_t seq;  // the deterministic tie-breaker
    EventId id;
  };
  struct Slot {
    EventFn fn;
    const char* label = nullptr;
    SimTime enqueued;
    std::uint32_t gen = 0;
    bool live = false;
  };

  // Whether `id` names a scheduled event that has not run or been
  // cancelled.
  bool Pending(EventId id) const;
  // Frees the slot and returns its closure.
  EventFn Release(std::uint32_t index);
  void DropStaleHead();

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;  // heap keys whose event was cancelled
  std::uint64_t next_seq_ = 0;
};

}  // namespace legion
