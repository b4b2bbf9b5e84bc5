#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace legion {
namespace {

// Heap order for std::push_heap/pop_heap, earliest on top.  (when, seq)
// is a total order, so any heap shape pops the same sequence.
struct Later {
  template <typename Key>
  bool operator()(const Key& a, const Key& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

// The heap is rebuilt without its stale keys once they exceed both this
// floor and the live count, which bounds it at about twice the live
// events.
constexpr std::size_t kMinStaleForRebuild = 1024;

std::uint32_t SlotOf(EventId id) { return static_cast<std::uint32_t>(id) - 1; }

}  // namespace

EventId EventQueue::Schedule(SimTime when, EventFn fn, const char* label,
                             SimTime enqueued) {
  std::uint32_t index;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.label = label;
  slot.enqueued = enqueued;
  slot.live = true;
  const EventId id = (static_cast<EventId>(slot.gen) << 32) | (index + 1ull);
  heap_.push_back(Key{when, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return id;
}

bool EventQueue::Pending(EventId id) const {
  const std::uint64_t index = id & 0xffffffffu;
  if (index == 0 || index > slots_.size()) return false;
  const Slot& slot = slots_[index - 1];
  return slot.live && slot.gen == (id >> 32);
}

EventQueue::EventFn EventQueue::Release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  ++slot.gen;  // the slot's old id and heap key no longer match it
  free_.push_back(index);
  --live_;
  return std::exchange(slot.fn, nullptr);
}

bool EventQueue::Cancel(EventId id) {
  if (!Pending(id)) return false;
  // The closure dies at return, after the bookkeeping: its destructor may
  // re-enter the queue.
  EventFn doomed = Release(SlotOf(id));
  if (++stale_ > kMinStaleForRebuild && stale_ > live_) {
    std::erase_if(heap_, [this](const Key& key) { return !Pending(key.id); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }
  return true;
}

void EventQueue::DropStaleHead() {
  while (!heap_.empty() && !Pending(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_;
  }
}

SimTime EventQueue::NextTime() {
  DropStaleHead();
  return heap_.empty() ? SimTime::Max() : heap_.front().when;
}

EventQueue::Popped EventQueue::Pop() {
  DropStaleHead();
  assert(!heap_.empty());
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  const Slot& slot = slots_[SlotOf(top.id)];
  return Popped{top.when, Release(SlotOf(top.id)), slot.label, slot.enqueued};
}

}  // namespace legion
