// Federation properties (DESIGN.md §10): after the deltas quiesce, the
// hierarchy is transparent -- a domain-scoped query against the owning
// sub-Collection answers exactly what a global query filtered to that
// domain answers -- and same-seed federated universes are bit-identical.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "test_world.h"
#include "workload/metacomputer.h"

namespace legion {
namespace {

using testing::Count;

NetworkParams Net(std::uint64_t seed) {
  NetworkParams params;
  params.jitter_fraction = 0.1;  // jitter on: properties must survive it
  params.seed = seed;
  return params;
}

MetacomputerConfig FederatedConfig(std::uint64_t seed, std::size_t domains) {
  MetacomputerConfig config;
  config.domains = domains;
  config.hosts_per_domain = 5;
  config.heterogeneous = true;
  config.seed = seed;
  config.load.volatility = 0.2;
  config.start_reassessment = true;
  config.federated = true;
  config.delta_push_period = Duration::Seconds(3);
  return config;
}

std::string Render(const CollectionData& records) {
  std::ostringstream out;
  for (const CollectionRecord& record : records) {
    out << record.member.ToString() << " => "
        << record.attributes.ToString() << '\n';
  }
  return out.str();
}

class FederationEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FederationEquivalenceTest, ScopedSubEqualsGlobalFilteredToDomain) {
  const std::uint64_t seed = GetParam();
  SimKernel kernel(Net(seed));
  MetacomputerConfig config = FederatedConfig(seed, 4);
  // Freeze the world after populate so sub and root converge: once the
  // journals drain, both views describe the same records.
  config.start_reassessment = false;
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();
  kernel.RunFor(config.delta_push_period * 2 + Duration::Seconds(2));

  CollectionFederation* federation = metacomputer.federation();
  ASSERT_NE(federation, nullptr);
  CollectionObject* root = federation->root();
  ASSERT_EQ(root->record_count(), config.domains * config.hosts_per_domain);

  std::size_t scoped_total = 0;
  for (const auto& [domain, sub] : federation->subs()) {
    auto local = sub->QueryLocal("true");
    ASSERT_TRUE(local.ok());
    QueryOptions scoped;
    scoped.domain_scope = static_cast<std::int64_t>(domain);
    auto global = root->QueryLocal("true", scoped);
    ASSERT_TRUE(global.ok());
    EXPECT_EQ(Render(*local), Render(*global)) << "domain " << domain;
    scoped_total += global->size();
  }
  // The domain scopes partition the aggregate: nothing lost, nothing
  // double-counted.
  EXPECT_EQ(scoped_total, root->record_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationEquivalenceTest,
                         ::testing::Values(5, 23, 404));

// Full federated universe fingerprint: membership views, delta-machinery
// counters, and kernel totals.
std::string RunFederatedScenario(std::uint64_t seed) {
  SimKernel kernel(Net(seed));
  Metacomputer metacomputer(&kernel, FederatedConfig(seed, 3));
  metacomputer.PopulateCollection();
  kernel.RunFor(Duration::Minutes(2));

  CollectionFederation* federation = metacomputer.federation();
  std::ostringstream fingerprint;
  auto aggregate = federation->root()->QueryLocal("true");
  fingerprint << "root:\n" << Render(*aggregate);
  for (const auto& [domain, sub] : federation->subs()) {
    fingerprint << "sub" << domain << ":\n" << Render(*sub->QueryLocal("true"));
  }
  fingerprint << "pushes:" << Count(kernel, "delta_pushes", "collection")
              << " records:" << Count(kernel, "delta_records", "collection")
              << " pulls:" << Count(kernel, "refresh_pulls", "collection")
              << " stale:" << Count(kernel, "stale_answers", "collection")
              << '\n';
  fingerprint << "events:" << Count(kernel, "events_run", "kernel")
              << " msgs:" << Count(kernel, "messages_sent", "kernel")
              << " bytes:" << Count(kernel, "bytes_sent", "kernel") << '\n';
  return fingerprint.str();
}

class FederationDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FederationDeterminismTest, SameSeedSameFederation) {
  EXPECT_EQ(RunFederatedScenario(GetParam()),
            RunFederatedScenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FederationDeterminismTest,
                         ::testing::Values(2, 11, 1999));

}  // namespace
}  // namespace legion
