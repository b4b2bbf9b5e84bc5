// Scale: the paper's vision is "many thousands, perhaps millions, of
// hosts".  We check that the RMI machinery stays correct (and tolerably
// fast) on a metacomputer three orders of magnitude smaller than the
// vision but two larger than the other tests.
#include <gtest/gtest.h>

#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "workload/metacomputer.h"

namespace legion {
namespace {

NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.05;
  return params;
}

class ScaleTest : public ::testing::Test {
 protected:
  ScaleTest() : kernel_(QuietNet()) {
    MetacomputerConfig config;
    config.domains = 20;
    config.hosts_per_domain = 50;  // 1000 hosts
    config.vaults_per_domain = 4;
    config.seed = 2024;
    config.load.volatility = 0.1;
    metacomputer_ = std::make_unique<Metacomputer>(&kernel_, config);
    metacomputer_->PopulateCollection();
  }

  SimKernel kernel_;
  std::unique_ptr<Metacomputer> metacomputer_;
};

TEST_F(ScaleTest, ThousandHostsPopulateTheCollection) {
  EXPECT_EQ(metacomputer_->hosts().size(), 1000u);
  EXPECT_EQ(metacomputer_->collection()->record_count(), 1000u);
}

TEST_F(ScaleTest, QueriesFilterAtScale) {
  auto idle = metacomputer_->collection()->QueryLocal(
      "$host_load < 0.4 and $host_arch == \"x86\"");
  ASSERT_TRUE(idle.ok());
  EXPECT_GT(idle->size(), 0u);
  EXPECT_LT(idle->size(), 1000u);
}

TEST_F(ScaleTest, PlacementAcrossThousandHosts) {
  ClassObject* klass = metacomputer_->MakeUniversalClass("wide", 16, 0.25);
  auto* scheduler = kernel_.AddActor<LoadAwareScheduler>(
      kernel_.minter().Mint(LoidSpace::kService, 0),
      metacomputer_->collection()->loid(), metacomputer_->enactor()->loid());
  bool success = false;
  std::size_t placed = 0;
  scheduler->ScheduleAndEnact(
      {{klass->loid(), 64}}, RunOptions{2, 2},
      [&](Result<RunOutcome> outcome) {
        success = outcome.ok() && outcome->success;
        if (success) placed = outcome->feedback.reserved_mappings.size();
      });
  kernel_.RunFor(Duration::Minutes(5));
  EXPECT_TRUE(success);
  EXPECT_EQ(placed, 64u);
}

TEST_F(ScaleTest, IrsWorksAtScaleWithContention) {
  // A tenth of the hosts refuse; IRS still succeeds via variants.
  Rng rng(5);
  for (auto* host : metacomputer_->hosts()) {
    if (rng.Bernoulli(0.1)) {
      host->SetPolicy(std::make_unique<DomainRefusalPolicy>(
          std::vector<std::uint32_t>{0}));
    }
  }
  ClassObject* klass = metacomputer_->MakeUniversalClass("contended");
  auto* scheduler = kernel_.AddActor<IrsScheduler>(
      kernel_.minter().Mint(LoidSpace::kService, 0),
      metacomputer_->collection()->loid(), metacomputer_->enactor()->loid(),
      4, 99);
  bool success = false;
  scheduler->ScheduleAndEnact({{klass->loid(), 16}}, RunOptions{3, 2},
                              [&](Result<RunOutcome> outcome) {
                                success = outcome.ok() && outcome->success;
                              });
  kernel_.RunFor(Duration::Minutes(5));
  EXPECT_TRUE(success);
}

}  // namespace
}  // namespace legion
