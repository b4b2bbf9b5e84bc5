// Ranked schedulers: load-aware, cost-aware, round-robin.
#include "core/schedulers/ranked_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::TestWorld;

class RankedSchedulerTest : public ::testing::Test {
 protected:
  RankedSchedulerTest() : world_(testing::TestWorldConfig{.hosts = 4}) {
    klass_ = world_.MakeClass("app", /*memory_mb=*/64);
  }

  template <typename SchedulerT, typename... Args>
  SchedulerT* Make(Args&&... args) {
    return world_.kernel.AddActor<SchedulerT>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0),
        world_.collection->loid(), world_.enactor->loid(),
        std::forward<Args>(args)...);
  }

  Result<ScheduleRequestList> Compute(SchedulerObject* scheduler,
                                      const PlacementRequest& request) {
    Await<ScheduleRequestList> schedule;
    scheduler->ComputeSchedule(request, schedule.Sink());
    world_.Run();
    EXPECT_TRUE(schedule.Ready());
    return std::move(schedule.Get());
  }

  TestWorld world_;
  ClassObject* klass_;
};

TEST_F(RankedSchedulerTest, LoadAwarePrefersIdleHosts) {
  world_.hosts[0]->SpikeLoad(3.0);
  world_.hosts[1]->SpikeLoad(2.0);
  world_.Populate();
  auto* scheduler = Make<LoadAwareScheduler>();
  auto schedule = Compute(scheduler, {{klass_->loid(), 2}});
  ASSERT_TRUE(schedule.ok());
  const auto& mappings = schedule->masters[0].mappings;
  ASSERT_EQ(mappings.size(), 2u);
  // The two idle hosts (2 and 3) get the work.
  std::set<Loid> used{mappings[0].host, mappings[1].host};
  EXPECT_TRUE(used.count(world_.hosts[2]->loid()));
  EXPECT_TRUE(used.count(world_.hosts[3]->loid()));
}

TEST_F(RankedSchedulerTest, LoadAwareSpreadsRatherThanPiles) {
  world_.Populate();
  auto* scheduler = Make<LoadAwareScheduler>();
  auto schedule = Compute(scheduler, {{klass_->loid(), 4}});
  ASSERT_TRUE(schedule.ok());
  std::map<Loid, int> counts;
  for (const auto& mapping : schedule->masters[0].mappings) {
    counts[mapping.host]++;
  }
  // With equal loads, four instances land on four distinct hosts.
  EXPECT_EQ(counts.size(), 4u);
}

TEST_F(RankedSchedulerTest, FeasibilityFilterAvoidsNonfeasibleSchedules) {
  // Claim C6: rich attributes let the scheduler skip hosts that would
  // fail later.  Fill host 0's memory and note its absence.
  auto* fat = world_.MakeClass("fat", /*memory_mb=*/1000);
  PlacementSuggestion suggestion;
  suggestion.host = world_.hosts[0]->loid();
  suggestion.vault = world_.vaults[0]->loid();
  Await<Loid> placed;
  fat->CreateInstance(suggestion, placed.Sink());
  world_.Run();
  ASSERT_TRUE(placed.Get().ok());
  world_.Populate();

  auto* scheduler = Make<LoadAwareScheduler>();
  auto* big = world_.MakeClass("big", /*memory_mb=*/512);
  auto schedule = Compute(scheduler, {{big->loid(), 6}});
  ASSERT_TRUE(schedule.ok());
  for (const auto& mapping : schedule->masters[0].mappings) {
    EXPECT_NE(mapping.host, world_.hosts[0]->loid())
        << "scheduled onto a host without memory";
  }
}

TEST_F(RankedSchedulerTest, RankedVariantsNameAlternatives) {
  world_.Populate();
  auto* scheduler = Make<LoadAwareScheduler>();
  auto schedule = Compute(scheduler, {{klass_->loid(), 2}});
  ASSERT_TRUE(schedule.ok());
  const MasterSchedule& master = schedule->masters[0];
  EXPECT_GE(master.variants.size(), 1u);
  EXPECT_TRUE(master.Validate().ok());
  for (const auto& variant : master.variants) {
    for (const auto& [index, mapping] : variant.mappings) {
      EXPECT_FALSE(mapping == master.mappings[index]);
    }
  }
}

TEST_F(RankedSchedulerTest, VariantsAreTheNextBestHostsInRankOrder) {
  // Distinct loads decide every rank.  Each instance's master and
  // variants must be its best hosts in order, by score plus the load this
  // round already charged to them (ties by LOID), not just its best host.
  world_.hosts[0]->SpikeLoad(0.3);
  world_.hosts[1]->SpikeLoad(0.2);
  world_.hosts[2]->SpikeLoad(0.1);
  world_.Populate();
  auto records = world_.collection->QueryLocal("true");
  ASSERT_TRUE(records.ok());
  std::map<Loid, double> score;
  std::map<Loid, double> charge;
  for (const CollectionRecord& record : *records) {
    score[record.member] =
        record.attributes.GetOr("host_load", AttrValue(1e9)).as_double();
    charge[record.member] =
        1.0 / record.attributes.GetOr("host_cpus", AttrValue(1)).as_double();
  }
  ASSERT_EQ(score.size(), 4u);

  auto* scheduler = Make<LoadAwareScheduler>();
  auto schedule = Compute(scheduler, {{klass_->loid(), 3}});
  ASSERT_TRUE(schedule.ok());
  const MasterSchedule& master = schedule->masters[0];
  ASSERT_EQ(master.mappings.size(), 3u);
  ASSERT_EQ(master.variants.size(), RankedScheduler::kVariants);
  for (std::size_t i = 0; i < master.mappings.size(); ++i) {
    std::vector<Loid> expected;
    for (const auto& [host, unused] : score) expected.push_back(host);
    std::sort(expected.begin(), expected.end(),
              [&](const Loid& a, const Loid& b) {
                if (score[a] != score[b]) return score[a] < score[b];
                return a < b;
              });
    expected.resize(RankedScheduler::kVariants + 1);
    std::vector<Loid> ranked{master.mappings[i].host};
    for (const VariantSchedule& variant : master.variants) {
      for (const auto& [index, mapping] : variant.mappings) {
        if (index == i) ranked.push_back(mapping.host);
      }
    }
    EXPECT_EQ(ranked, expected) << "instance " << i;
    score[master.mappings[i].host] += charge[master.mappings[i].host];
  }
}

TEST_F(RankedSchedulerTest, CostAwarePicksCheapestPerWork) {
  // Re-spec hosts with distinct costs via a fresh world: the cheapest
  // per unit of work must win.
  TestWorld world(testing::TestWorldConfig{.hosts = 3});
  // hosts all speed 100 (default); charge them differently.
  // HostSpec is fixed post-construction, so craft records through the
  // collection directly.
  world.Populate();
  auto* klass = world.MakeClass("app");
  // Overwrite cost attributes in the collection (scheduler reads records,
  // not live hosts).
  const double costs[3] = {0.010, 0.001, 0.005};
  for (int i = 0; i < 3; ++i) {
    AttributeDatabase attrs = world.hosts[i]->attributes();
    attrs.Set("host_cost_per_cpu_second", costs[i]);
    Await<bool> updated;
    world.collection->UpdateEntryAs(world.hosts[i]->loid(),
                                    world.hosts[i]->loid(), attrs,
                                    updated.Sink());
    ASSERT_TRUE(*updated.Get());
  }
  auto* scheduler = world.kernel.AddActor<CostAwareScheduler>(
      world.kernel.minter().Mint(LoidSpace::kService, 0),
      world.collection->loid(), world.enactor->loid());
  Await<ScheduleRequestList> schedule;
  scheduler->ComputeSchedule({{klass->loid(), 1}}, schedule.Sink());
  world.Run();
  ASSERT_TRUE(schedule.Get().ok());
  EXPECT_EQ(schedule.Get()->masters[0].mappings[0].host,
            world.hosts[1]->loid());
}

TEST_F(RankedSchedulerTest, RoundRobinUsesEveryHostEvenly) {
  world_.Populate();
  auto* scheduler = Make<RoundRobinScheduler>();
  auto schedule = Compute(scheduler, {{klass_->loid(), 8}});
  ASSERT_TRUE(schedule.ok());
  std::map<Loid, int> counts;
  for (const auto& mapping : schedule->masters[0].mappings) {
    counts[mapping.host]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [host, count] : counts) EXPECT_EQ(count, 2);
}

TEST_F(RankedSchedulerTest, EndToEndPlacementWorks) {
  world_.Populate();
  auto* scheduler = Make<LoadAwareScheduler>();
  Await<RunOutcome> outcome;
  scheduler->ScheduleAndEnact({{klass_->loid(), 3}}, RunOptions{2, 2},
                              outcome.Sink());
  world_.Run();
  ASSERT_TRUE(outcome.Ready());
  EXPECT_TRUE(outcome.Get()->success);
  EXPECT_EQ(klass_->instances().size(), 3u);
}

TEST_F(RankedSchedulerTest, NoFeasibleHostsFails) {
  world_.Populate();
  auto* scheduler = Make<LoadAwareScheduler>();
  auto* monster = world_.MakeClass("monster", /*memory_mb=*/999999);
  auto schedule = Compute(scheduler, {{monster->loid(), 1}});
  EXPECT_EQ(schedule.code(), ErrorCode::kNoResources);
}

}  // namespace
}  // namespace legion
