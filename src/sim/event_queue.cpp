#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace legion {
namespace {

// The buckets are compacted once stale entries exceed both this floor and
// the live count, which bounds them at about twice the live events.
constexpr std::size_t kMinStaleForCompaction = 1024;

std::uint32_t SlotOf(EventId id) { return static_cast<std::uint32_t>(id) - 1; }

}  // namespace

EventId EventQueue::Schedule(SimTime when, EventFn fn, const char* label,
                             SimTime enqueued) {
  assert(when >= SimTime::Zero() && "event times are non-negative");
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
  // Legal after a NextTime that raised the floor past a RunUntil horizon.
  if (when.micros() < floor_) Rekey(when.micros());
  Place(Entry{when.micros(), id});
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
  ++slot.gen;  // the slot's old id and queue entry no longer match it
  free_.push_back(index);
  --live_;
  return std::exchange(slot.fn, nullptr);
}

bool EventQueue::Cancel(EventId id) {
  if (!Pending(id)) return false;
  // The closure dies at return, after the bookkeeping: its destructor may
  // re-enter the queue.
  EventFn doomed = Release(SlotOf(id));
  if (++stale_ > kMinStaleForCompaction && stale_ > live_) Compact();
  return true;
}

void EventQueue::Place(const Entry& entry) {
  const int bucket =
      std::bit_width(static_cast<std::uint64_t>(entry.when ^ floor_));
  buckets_[bucket].push_back(entry);
  occupied_ |= std::uint64_t{1} << bucket;
}

bool EventQueue::Settle() {
  std::vector<Entry>& current = buckets_[0];
  for (;;) {
    while (head_ < current.size()) {
      if (Pending(current[head_].id)) return true;
      ++head_;  // a cancelled event's entry
      --stale_;
    }
    current.clear();
    head_ = 0;
    occupied_ &= ~std::uint64_t{1};
    if (occupied_ == 0) return false;
    // Every entry of the lowest non-empty bucket moves to a lower one
    // against its earliest time, stale entries included: looking each up
    // would cost a cache miss apiece.
    std::vector<Entry>& lowest = buckets_[std::countr_zero(occupied_)];
    occupied_ &= occupied_ - 1;
    floor_ = lowest.front().when;
    for (const Entry& entry : lowest) floor_ = std::min(floor_, entry.when);
    for (const Entry& entry : lowest) Place(entry);
    lowest.clear();
  }
}

void EventQueue::Rekey(std::int64_t floor) {
  // The entries of one instant share a bucket in scheduling order, so
  // collecting the buckets in turn and re-placing keeps that order.
  std::vector<Entry> entries(buckets_[0].begin() + head_, buckets_[0].end());
  buckets_[0].clear();
  head_ = 0;
  for (std::uint64_t bits = occupied_ & ~std::uint64_t{1}; bits != 0;
       bits &= bits - 1) {
    std::vector<Entry>& bucket = buckets_[std::countr_zero(bits)];
    entries.insert(entries.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  occupied_ = 0;
  floor_ = floor;
  for (const Entry& entry : entries) Place(entry);
}

void EventQueue::Compact() {
  buckets_[0].erase(buckets_[0].begin(), buckets_[0].begin() + head_);
  head_ = 0;
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    const int b = std::countr_zero(bits);
    std::erase_if(buckets_[b],
                  [this](const Entry& entry) { return !Pending(entry.id); });
    if (buckets_[b].empty()) occupied_ &= ~(std::uint64_t{1} << b);
  }
  stale_ = 0;
}

SimTime EventQueue::NextTime() {
  return Settle() ? SimTime(floor_) : SimTime::Max();
}

EventQueue::Popped EventQueue::Pop() {
  [[maybe_unused]] const bool found = Settle();
  assert(found);
  const Entry top = buckets_[0][head_++];
  const std::uint32_t index = SlotOf(top.id);
  const Slot& slot = slots_[index];
  return Popped{SimTime(top.when), Release(index), slot.label, slot.enqueued};
}

}  // namespace legion
