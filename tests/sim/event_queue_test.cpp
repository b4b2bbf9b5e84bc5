#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace legion {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime(30), [&] { order.push_back(3); });
  q.Schedule(SimTime(10), [&] { order.push_back(1); });
  q.Schedule(SimTime(20), [&] { order.push_back(2); });
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(SimTime(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(SimTime(10), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.Schedule(SimTime(10), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelAfterRunFails) {
  EventQueue q;
  EventId id = q.Schedule(SimTime(10), [] {});
  q.Pop().fn();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelBogusIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(999));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(SimTime(10), [] {});
  q.Schedule(SimTime(20), [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), SimTime(20));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, EmptyNextTimeIsMax) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), SimTime::Max());
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.Schedule(SimTime(1), [] {});
  q.Schedule(SimTime(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.Pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  int run_count = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(SimTime(i % 50), [&] { ++run_count; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.Cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(run_count + cancelled, 1000);
}

TEST(EventQueueTest, CancelDestroysClosureAtOnce) {
  EventQueue q;
  auto capture = std::make_shared<int>(1);
  std::weak_ptr<int> watch = capture;
  EventId id = q.Schedule(SimTime(10), [capture] {});
  q.Schedule(SimTime(20), [] {});
  capture.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, StaleIdCannotCancelReusedSlot) {
  EventQueue q;
  EventId cancelled = q.Schedule(SimTime(1), [] {});
  ASSERT_TRUE(q.Cancel(cancelled));
  EventId ran = q.Schedule(SimTime(2), [] {});
  q.Pop().fn();
  // Both freed slots are taken again; neither old id may touch them.
  int runs = 0;
  EventId a = q.Schedule(SimTime(3), [&] { ++runs; });
  EventId b = q.Schedule(SimTime(4), [&] { ++runs; });
  for (EventId fresh : {a, b}) {
    EXPECT_NE(fresh, cancelled);
    EXPECT_NE(fresh, ran);
  }
  EXPECT_FALSE(q.Cancel(cancelled));
  EXPECT_FALSE(q.Cancel(ran));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(runs, 2);
}

// Runs `fn` when the last copy of the closure holding it dies.
struct OnDestroy {
  std::function<void()> fn;
  ~OnDestroy() { fn(); }
};

// The destructor of a dropped closure schedules enough events to grow the
// slot table and cancels enough to compact the buckets, all while the queue
// is inside Cancel (or just after Pop).  Order and size must survive.
void ReenterFromDestructor(bool through_cancel) {
  EventQueue q;
  std::vector<int> order;
  auto guard = std::make_shared<OnDestroy>();
  guard->fn = [&q, &order] {
    std::vector<EventId> ids;
    for (int i = 0; i < 3000; ++i) {
      ids.push_back(q.Schedule(SimTime(100 + i % 7),
                               [&order, i] { order.push_back(i); }));
    }
    for (int i = 1; i < 3000; ++i) {
      if (i % 3 != 0) {
        EXPECT_TRUE(q.Cancel(ids[i]));
      }
    }
  };
  EventId id = q.Schedule(SimTime(10), [guard] {});
  guard.reset();
  if (through_cancel) {
    EXPECT_TRUE(q.Cancel(id));
  } else {
    q.Pop();  // the popped closure dies here without running
  }
  EXPECT_EQ(q.size(), 1000u);
  while (!q.empty()) q.Pop().fn();
  std::vector<int> expected;
  for (int t = 0; t < 7; ++t) {
    for (int i = 0; i < 3000; i += 3) {
      if (i % 7 == t) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelledClosureDestructorMayReenter) {
  ReenterFromDestructor(/*through_cancel=*/true);
}

TEST(EventQueueTest, PoppedClosureDestructorMayReenter) {
  ReenterFromDestructor(/*through_cancel=*/false);
}

// Differential test against a reference model: a std::set of (when, seq)
// for the live events.  Times range from the current instant to four
// hours ahead, so entries reach the high buckets, and many share an
// instant with an earlier entry, so same-instant order must survive every
// re-placement.  A NextTime is often followed by a Schedule before the
// time it returned, which lowers the floor again.  Phases of heavy
// cancellation make stale entries outnumber live ones many times over, so
// compaction runs often.
TEST(EventQueueTest, MatchesReferenceModel) {
  using Key = std::pair<std::int64_t, int>;  // (when, seq)
  EventQueue q;
  std::mt19937_64 rng(20261018);
  std::set<Key> model;
  // The live ids, for uniform picks, and each one's key.
  std::vector<EventId> live_ids;
  std::unordered_map<EventId, std::pair<Key, std::size_t>> live;
  std::unordered_map<int, EventId> id_of_seq;
  std::vector<EventId> issued;
  std::vector<int> ran;
  int next_seq = 0;
  std::int64_t now = 0;
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  auto forget = [&](EventId id) {
    const std::size_t pos = live.at(id).second;
    live.at(live_ids.back()).second = pos;
    live_ids[pos] = live_ids.back();
    live_ids.pop_back();
    live.erase(id);
  };
  auto schedule = [&](std::int64_t when) {
    const Key key{when, next_seq++};
    EventId id = q.Schedule(SimTime(key.first), [&ran, seq = key.second] {
      ran.push_back(seq);
    });
    ASSERT_NE(id, kInvalidEventId);
    ASSERT_EQ(live.count(id), 0u);
    live[id] = {key, live_ids.size()};
    live_ids.push_back(id);
    id_of_seq[key.second] = id;
    model.insert(key);
    issued.push_back(id);
  };
  std::size_t lowered = 0;
  for (int op = 0; op < 200000; ++op) {
    // Alternate build-up and drain phases of 5000 operations.
    const bool drain = (op / 5000) % 2 == 1;
    const std::size_t roll = pick(100);
    if (roll < (drain ? 10u : 60u)) {
      const std::uint64_t kind = pick(10);
      if (kind < 2) {
        schedule(now);  // the current instant
      } else if (kind < 3 && !live_ids.empty()) {
        // The instant of a live event, which may sit in any bucket.
        schedule(live.at(live_ids[pick(live_ids.size())]).first.first);
      } else if (kind < 9) {
        schedule(now + static_cast<std::int64_t>(pick(5000)));
      } else {
        schedule(now + static_cast<std::int64_t>(pick(4 * 3600000000ull)));
      }
    } else if (roll < (drain ? 80u : 85u)) {
      // Mostly live ids, also ids that ran, were cancelled, or never were.
      EventId id;
      const std::size_t kind = pick(10);
      if (kind < 8 && !live_ids.empty()) {
        id = live_ids[pick(live_ids.size())];
      } else if (kind < 9 && !issued.empty()) {
        id = issued[pick(issued.size())];
      } else {
        id = rng();
      }
      auto it = live.find(id);
      const bool expected = it != live.end();
      ASSERT_EQ(q.Cancel(id), expected) << "op " << op;
      if (expected) {
        model.erase(it->second.first);
        forget(id);
      }
    } else if (roll < 95u) {
      if (model.empty()) {
        ASSERT_TRUE(q.empty());
        continue;
      }
      const auto [when, seq] = *model.begin();
      auto popped = q.Pop();
      ASSERT_EQ(popped.when, SimTime(when)) << "op " << op;
      popped.fn();
      ASSERT_EQ(ran.back(), seq) << "op " << op;
      model.erase(model.begin());
      forget(id_of_seq.at(seq));
      now = when;
    } else {
      const SimTime expected =
          model.empty() ? SimTime::Max() : SimTime(model.begin()->first);
      ASSERT_EQ(q.NextTime(), expected) << "op " << op;
      // As the kernel may after RunUntil stops short of `expected`.
      if (!model.empty() && expected.micros() > now && pick(2) == 0) {
        const std::uint64_t gap = expected.micros() - now;
        schedule(now + static_cast<std::int64_t>(pick(gap)));
        ++lowered;
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
  }
  EXPECT_GT(ran.size(), 10000u);
  EXPECT_GT(lowered, 500u);
}

}  // namespace
}  // namespace legion
