// Tracing invariants: same seed => byte-identical exports; a disabled
// sink records (and allocates) nothing; and the causal span tree links a
// negotiation's innermost reservation RPC back to its schedule root.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "core/schedulers/random_scheduler.h"
#include "obs/trace.h"
#include "test_world.h"

namespace legion::testing {
namespace {

struct TraceRun {
  std::string chrome;
  std::string jsonl;
  std::vector<obs::TraceEvent> events;
};

// One full negotiation (schedule -> query -> reserve -> enact) in a
// small deterministic world, with tracing on unless told otherwise.
TraceRun RunTracedPlacement(bool enable_trace = true) {
  TestWorld world;
  if (enable_trace) world.kernel.trace().Enable();
  world.Populate();
  ClassObject* klass = world.MakeClass("app");
  auto* scheduler = world.kernel.AddActor<RandomScheduler>(
      world.kernel.minter().Mint(LoidSpace::kService, 0),
      world.collection->loid(), world.enactor->loid(), /*seed=*/7);
  Await<RunOutcome> outcome;
  scheduler->ScheduleAndEnact({{klass->loid(), 2}}, RunOptions{3, 2},
                              outcome.Sink());
  world.Run();
  EXPECT_TRUE(outcome.Ready());

  TraceRun run;
  run.chrome = world.kernel.trace().ToChromeJson();
  run.jsonl = world.kernel.trace().ToJsonl();
  run.events = world.kernel.trace().events();
  return run;
}

TEST(TraceDeterminism, SameSeedProducesByteIdenticalExports) {
  TraceRun first = RunTracedPlacement();
  TraceRun second = RunTracedPlacement();
  ASSERT_FALSE(first.events.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.chrome, second.chrome);
}

TEST(TraceDeterminism, DisabledSinkRecordsNothing) {
  TraceRun run = RunTracedPlacement(/*enable_trace=*/false);
  EXPECT_TRUE(run.events.empty());
  EXPECT_TRUE(run.chrome.find("\"name\"") == std::string::npos);
  EXPECT_TRUE(run.jsonl.empty());
}

TEST(TraceDeterminism, DisabledSinkNeverAllocates) {
  obs::TraceLog log;  // never enabled
  (void)log.BeginSpan(SimTime(), "x", "t", obs::kNoSpan);
  log.EndSpan(SimTime(), /*span=*/1);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.events().capacity(), 0u);
}

TEST(TraceCausality, ReservationRpcLinksBackToScheduleRoot) {
  TraceRun run = RunTracedPlacement();

  // Index the begin events: span id -> (name, parent).
  struct SpanInfo {
    std::string name;
    obs::SpanId parent;
  };
  std::unordered_map<obs::SpanId, SpanInfo> spans;
  for (const obs::TraceEvent& event : run.events) {
    if (event.phase == obs::TraceEvent::Phase::kBegin) {
      spans[event.span] = {event.name, event.parent};
    }
  }

  // At least one per-host reservation RPC (per-mapping make_reservation,
  // or the coalesced reserve_batch when batching is on) must chain, via
  // parent links, through the make_reservations RPC up to the
  // scheduler's schedule_and_enact root.
  bool found_chain = false;
  for (const auto& [span, info] : spans) {
    if (info.name != "make_reservation" && info.name != "reserve_batch") {
      continue;
    }
    std::vector<std::string> ancestry;
    obs::SpanId cursor = info.parent;
    for (int hops = 0; cursor != obs::kNoSpan && hops < 32; ++hops) {
      auto it = spans.find(cursor);
      if (it == spans.end()) break;
      ancestry.push_back(it->second.name);
      cursor = it->second.parent;
    }
    const bool has_batch_rpc =
        std::find(ancestry.begin(), ancestry.end(), "make_reservations") !=
        ancestry.end();
    const bool has_root =
        std::find(ancestry.begin(), ancestry.end(), "schedule_and_enact") !=
        ancestry.end();
    if (has_batch_rpc && has_root) {
      found_chain = true;
      break;
    }
  }
  EXPECT_TRUE(found_chain)
      << "no make_reservation span chains back to schedule_and_enact; "
      << "trace has " << run.events.size() << " events";
}

}  // namespace
}  // namespace legion::testing
