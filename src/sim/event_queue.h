// The discrete-event queue.
//
// Events run in (time, scheduling order) order: two events scheduled for
// the same instant run in scheduling order.  Closures live in a slot
// table; the queue proper is a monotone radix queue of 16-byte entries
// (time, id) on the microsecond clock.  The *floor* is the time of the
// last event popped (or peeked by NextTime).  An entry sits in bucket b,
// where b is the bit width of its time XOR the floor: bucket 0 holds the
// floor's own instant, and every entry of a lower bucket is earlier than
// every entry of a higher one.  A 64-bit occupancy mask finds the lowest
// non-empty bucket.  When bucket 0 runs dry, that bucket's entries are
// re-placed, in order, against its earliest time as the new floor; each
// moves to a strictly lower bucket.  Buckets are FIFOs, appended to,
// drained and compacted in order and never sorted, so the entries of one
// instant share a bucket in scheduling order and no tie-breaking sequence
// is needed.
//
// Cancel destroys the closure at once and frees the slot; the entry left
// behind is stale and is skipped when it reaches bucket 0's head, or
// dropped by a compaction once stale entries outnumber live ones, so the
// buckets stay proportional to the live events.
#pragma once

#include <array>
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

  // Schedules `fn` at absolute time `when` (non-negative); returns a
  // cancellable id.  `label` is an optional static "component/kind" string
  // and `enqueued` the scheduling instant -- both pure accounting carried
  // for the kernel profiler, with no effect on ordering or execution.
  EventId Schedule(SimTime when, EventFn fn, const char* label = nullptr,
                   SimTime enqueued = SimTime::Zero());

  // Cancels a pending event and destroys its closure before returning.
  // Returns false if the event already ran or was cancelled, or the id
  // was never issued.  The closure's destructor may schedule or cancel.
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Time of the earliest live event; SimTime::Max() when empty.  Raises
  // the floor to that time; a later Schedule below it re-keys the buckets
  // once.
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
  struct Entry {
    std::int64_t when;  // microseconds
    EventId id;
  };
  struct Slot {
    EventFn fn;
    const char* label = nullptr;
    SimTime enqueued;
    std::uint32_t gen = 0;
    bool live = false;
  };
  // Times are non-negative, so a time XOR the floor has at most 63
  // significant bits: bit widths 0..63.
  static constexpr int kBuckets = 64;

  // Whether `id` names a scheduled event that has not run or been
  // cancelled.
  bool Pending(EventId id) const;
  // Frees the slot and returns its closure.
  EventFn Release(std::uint32_t index);
  void Place(const Entry& entry);
  // Brings the earliest live event to bucket 0's head; false if none.
  bool Settle();
  // Lowers the floor to `floor`, re-placing every entry.
  void Rekey(std::int64_t floor);
  void Compact();

  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::size_t head_ = 0;        // bucket 0's next entry
  std::uint64_t occupied_ = 0;  // bit b: bucket b has entries
  std::int64_t floor_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;  // entries whose event was cancelled
};

}  // namespace legion
