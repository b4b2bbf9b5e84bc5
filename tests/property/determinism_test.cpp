// Reproducibility: identical seeds give bit-identical simulations --
// the property every experiment table relies on.
#include <gtest/gtest.h>

#include <sstream>

#include "core/schedulers/irs_scheduler.h"
#include "test_world.h"
#include "workload/executor.h"
#include "workload/metacomputer.h"

namespace legion {
namespace {

using testing::Count;

NetworkParams Net(std::uint64_t seed) {
  NetworkParams params;
  params.jitter_fraction = 0.1;  // jitter on: determinism must survive it
  params.seed = seed;
  return params;
}

// Runs a full scenario and produces a fingerprint of everything
// observable: placements, host states, kernel counters.
std::string RunScenario(std::uint64_t seed) {
  SimKernel kernel(Net(seed));
  MetacomputerConfig config;
  config.domains = 3;
  config.hosts_per_domain = 5;
  config.heterogeneous = true;
  config.seed = seed;
  config.load.volatility = 0.2;
  config.start_reassessment = true;
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();
  ClassObject* klass = metacomputer.MakeUniversalClass("app", 32, 0.5);
  auto* scheduler = kernel.AddActor<IrsScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      metacomputer.collection()->loid(), metacomputer.enactor()->loid(), 4,
      seed * 13 + 1);
  std::ostringstream fingerprint;
  for (int round = 0; round < 3; ++round) {
    scheduler->ScheduleAndEnact(
        {{klass->loid(), 4}}, RunOptions{3, 2},
        [&](Result<RunOutcome> outcome) {
          fingerprint << "round" << round << ":"
                      << (outcome.ok() && outcome->success ? "ok" : "fail");
          if (outcome.ok() && outcome->success) {
            for (const auto& mapping : outcome->feedback.reserved_mappings) {
              fingerprint << ' ' << mapping.ToString();
            }
          }
          fingerprint << '\n';
        });
    kernel.RunFor(Duration::Minutes(3));
  }
  for (auto* host : metacomputer.hosts()) {
    fingerprint << host->spec().name << "=load:" << host->CurrentLoad()
                << ",running:" << host->running_count()
                << ",reservations:" << host->reservations().size() << '\n';
  }
  fingerprint << "events:" << Count(kernel, "events_run", "kernel")
              << " msgs:" << Count(kernel, "messages_sent", "kernel")
              << " bytes:" << Count(kernel, "bytes_sent", "kernel")
              << " rpcs:" << Count(kernel, "rpcs_started", "kernel") << '\n';
  return fingerprint.str();
}

class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, SameSeedSameUniverse) {
  EXPECT_EQ(RunScenario(GetParam()), RunScenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1, 7, 42, 1999));

TEST(DeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(RunScenario(3), RunScenario(4));
}

}  // namespace
}  // namespace legion
