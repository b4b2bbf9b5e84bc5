// Property tests: Enactor negotiation invariants across random refusal
// patterns and schedule shapes.
#include <gtest/gtest.h>

#include "core/schedulers/irs_scheduler.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

struct Scenario {
  std::uint64_t seed;
  std::size_t instances;
  std::size_t nsched;
};

class EnactorPropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(EnactorPropertyTest, NegotiationInvariants) {
  const Scenario scenario = GetParam();
  TestWorld world(testing::TestWorldConfig{.hosts = 8});
  Rng rng(scenario.seed);
  // A random subset of hosts refuses our domain.
  std::vector<bool> refusing(world.hosts.size(), false);
  for (std::size_t i = 0; i < world.hosts.size(); ++i) {
    if (rng.Bernoulli(0.3)) {
      refusing[i] = true;
      world.hosts[i]->SetPolicy(std::make_unique<DomainRefusalPolicy>(
          std::vector<std::uint32_t>{0}));
    }
  }
  world.Populate();
  auto* klass = world.MakeClass("app", 32, 0.5);
  auto* scheduler = world.kernel.AddActor<IrsScheduler>(
      world.kernel.minter().Mint(LoidSpace::kService, 0),
      world.collection->loid(), world.enactor->loid(), scenario.nsched,
      scenario.seed * 7 + 1);

  Await<ScheduleRequestList> schedule;
  scheduler->ComputeSchedule({{klass->loid(), scenario.instances}},
                             schedule.Sink());
  world.Run();
  ASSERT_TRUE(schedule.Ready());
  if (!schedule.Get().ok()) GTEST_SKIP() << "no schedule generated";

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(*schedule.Get(), feedback.Sink());
  world.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get().ok());
  const ScheduleFeedback& result = *feedback.Get();

  // INVARIANT: without variants there is nothing to thrash.  (With
  // random IRS variants a later variant may legitimately reintroduce a
  // mapping an earlier variant displaced -- avoiding that requires the
  // Scheduler to "structure the variant schedules", which k-of-n does
  // and plain IRS does not; see k_of_n_scheduler_test for the
  // zero-thrash guarantee on structured variants.)
  if (scenario.nsched == 1) {
    EXPECT_EQ(Count(world.kernel, "rereservations", "enactor"), 0u);
  }

  if (result.success) {
    // INVARIANT: mappings and tokens agree in shape.
    ASSERT_EQ(result.reserved_mappings.size(), scenario.instances);
    ASSERT_EQ(result.tokens.size(), scenario.instances);
    for (std::size_t i = 0; i < scenario.instances; ++i) {
      // Tokens name the host they came from and verify there.
      EXPECT_EQ(result.tokens[i].host, result.reserved_mappings[i].host);
      auto* host = dynamic_cast<HostObject*>(
          world.kernel.FindActor(result.reserved_mappings[i].host));
      ASSERT_NE(host, nullptr);
      Await<bool> check;
      host->CheckReservation(result.tokens[i], check.Sink());
      EXPECT_TRUE(*check.Get()) << "token " << i << " not live at its host";
      // No refusing host ever appears in a successful schedule.
      for (std::size_t h = 0; h < world.hosts.size(); ++h) {
        if (world.hosts[h]->loid() == result.reserved_mappings[i].host) {
          EXPECT_FALSE(refusing[h]) << "placed on a refusing host";
        }
      }
    }
    // Accounting: granted = held + cancelled-along-the-way.
    EXPECT_EQ(Count(world.kernel, "reservations_granted", "enactor"),
              scenario.instances +
                  Count(world.kernel, "reservations_cancelled", "enactor"));
  } else {
    // INVARIANT: failure leaks no reservations anywhere.
    for (auto* host : world.hosts) {
      EXPECT_EQ(host->reservations().live_count(), 0u)
          << "leaked reservation on " << host->spec().name;
    }
  }
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  std::uint64_t seed = 1;
  for (std::size_t instances : {1UL, 3UL, 6UL}) {
    for (std::size_t nsched : {1UL, 3UL, 6UL}) {
      for (int repeat = 0; repeat < 3; ++repeat) {
        scenarios.push_back({seed++, instances, nsched});
      }
    }
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EnactorPropertyTest, ::testing::ValuesIn(MakeScenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return "seed" + std::to_string(info.param.seed) + "_k" +
             std::to_string(info.param.instances) + "_n" +
             std::to_string(info.param.nsched);
    });

}  // namespace
}  // namespace legion
