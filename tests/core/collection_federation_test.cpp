// Federated Collection hierarchy (DESIGN.md §10): delta propagation,
// version reconciliation, bounded staleness, and scoped query routing.
#include "core/collection_federation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/schedulers/random_scheduler.h"
#include "test_world.h"
#include "workload/metacomputer.h"
#include "workload/session.h"

namespace legion {
namespace {

using testing::Count;

NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.05;
  params.seed = 7;
  return params;
}

AttributeDatabase Attrs(const std::string& name, double load) {
  AttributeDatabase attrs;
  attrs.Set("host_name", name);
  attrs.Set("host_load", load);
  return attrs;
}

// A federation over a bare kernel: two domains, members joined directly.
class FederationFixture : public ::testing::Test {
 protected:
  FederationFixture() : kernel_(QuietNet()) {
    FederationOptions options;
    options.push_period = Duration::Seconds(2);
    federation_ =
        std::make_unique<CollectionFederation>(&kernel_, 2, options);
  }

  Loid JoinMember(DomainId domain, const std::string& name, double load) {
    const Loid member = kernel_.minter().Mint(LoidSpace::kHost, domain);
    kernel_.network().RegisterEndpoint(member, domain);
    federation_->sub(domain)->JoinCollection(member, Attrs(name, load),
                                             [](Result<bool>) {});
    return member;
  }

  SimKernel kernel_;
  std::unique_ptr<CollectionFederation> federation_;
};

TEST_F(FederationFixture, DeltasReachRootWithinPushPeriod) {
  const Loid a = JoinMember(0, "a", 0.25);
  const Loid b = JoinMember(1, "b", 0.5);
  EXPECT_EQ(federation_->root()->record_count(), 0u);  // nothing pushed yet
  // One push period plus WAN slack carries both joins to the root.
  kernel_.RunFor(Duration::Seconds(3));
  EXPECT_EQ(federation_->root()->record_count(), 2u);
  EXPECT_GE(Count(kernel_, "delta_pushes", "collection"), 2u);
  EXPECT_GE(Count(kernel_, "delta_records", "collection"), 2u);

  auto result = federation_->root()->QueryLocal("true");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].member, std::min(a, b));
  EXPECT_EQ((*result)[1].member, std::max(a, b));
}

TEST_F(FederationFixture, LeavesPropagateAsDeltas) {
  const Loid a = JoinMember(0, "a", 0.25);
  kernel_.RunFor(Duration::Seconds(3));
  ASSERT_EQ(federation_->root()->record_count(), 1u);
  federation_->sub(0)->LeaveCollection(a, [](Result<bool>) {});
  kernel_.RunFor(Duration::Seconds(3));
  EXPECT_EQ(federation_->root()->record_count(), 0u);
}

TEST_F(FederationFixture, UpdatesCoalescePerMemberLatestWins) {
  const Loid a = JoinMember(0, "a", 0.1);
  // Several updates inside one push period coalesce into one delta
  // carrying the newest attributes.
  for (int i = 1; i <= 4; ++i) {
    federation_->sub(0)->UpdateCollectionEntry(a, Attrs("a", 0.1 * i),
                                               [](Result<bool>) {});
  }
  DeltaBatch pending = federation_->sub(0)->PendingDeltas();
  ASSERT_EQ(pending.deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(pending.deltas[0].attributes.Get("host_load")->as_double(),
                   0.4);
  kernel_.RunFor(Duration::Seconds(3));
  auto result = federation_->root()->QueryLocal("true");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ((*result)[0].attributes.Get("host_load")->as_double(),
                   0.4);
  // Acked journal entries are pruned: nothing left to retransmit.
  EXPECT_TRUE(federation_->sub(0)->PendingDeltas().deltas.empty());
}

// Version reconciliation at a bare root, batches crafted by hand so the
// test controls ordering exactly.
class VersioningFixture : public ::testing::Test {
 protected:
  VersioningFixture() : kernel_(QuietNet()) {
    root_ = kernel_.AddActor<CollectionObject>(
        kernel_.minter().Mint(LoidSpace::kService, 0));
    sub_loid_ = kernel_.minter().Mint(LoidSpace::kService, 1);
    root_->AddChild(1, sub_loid_);
    member_ = Loid(LoidSpace::kHost, 1, 77);
  }

  DeltaBatch Batch(std::vector<CollectionDelta> deltas) {
    DeltaBatch batch;
    batch.source = sub_loid_;
    batch.domain = 1;
    batch.deltas = std::move(deltas);
    return batch;
  }

  CollectionDelta Upsert(std::uint64_t version, double load) {
    CollectionDelta delta;
    delta.kind = CollectionDelta::Kind::kUpsert;
    delta.member = member_;
    delta.version = version;
    delta.attributes = Attrs("m", load);
    return delta;
  }

  CollectionDelta Leave(std::uint64_t version) {
    CollectionDelta delta;
    delta.kind = CollectionDelta::Kind::kLeave;
    delta.member = member_;
    delta.version = version;
    return delta;
  }

  double RootLoad() {
    auto result = root_->QueryLocal("true");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 1u);
    return (*result)[0].attributes.Get("host_load")->as_double();
  }

  SimKernel kernel_;
  CollectionObject* root_ = nullptr;
  Loid sub_loid_;
  Loid member_;
};

TEST_F(VersioningFixture, LateDeltaWithOlderVersionIsIgnored) {
  std::uint64_t acked = 0;
  root_->ApplyDeltaBatch(Batch({Upsert(2, 0.8)}),
                         [&](Result<std::uint64_t> v) { acked = *v; });
  EXPECT_EQ(acked, 2u);
  // The version-1 update was sent earlier but arrives later (reordered
  // on the wire): it must not clobber the newer state.
  root_->ApplyDeltaBatch(Batch({Upsert(1, 0.2)}),
                         [&](Result<std::uint64_t> v) { acked = *v; });
  EXPECT_EQ(acked, 1u);
  EXPECT_DOUBLE_EQ(RootLoad(), 0.8);
}

TEST_F(VersioningFixture, RetransmittedBatchIsIdempotent) {
  DeltaBatch batch = Batch({Upsert(1, 0.3), Upsert(2, 0.6)});
  root_->ApplyDeltaBatch(batch, [](Result<std::uint64_t>) {});
  const std::uint64_t updates_once =
      Count(kernel_, "updates_applied", "collection");
  // A lost ack makes the sub retransmit the same batch; the version
  // check must turn the replay into a no-op.
  root_->ApplyDeltaBatch(batch, [](Result<std::uint64_t>) {});
  EXPECT_EQ(Count(kernel_, "updates_applied", "collection"), updates_once);
  EXPECT_DOUBLE_EQ(RootLoad(), 0.6);
}

TEST_F(VersioningFixture, LeaveTombstoneBlocksResurrection) {
  root_->ApplyDeltaBatch(Batch({Upsert(1, 0.3)}),
                         [](Result<std::uint64_t>) {});
  root_->ApplyDeltaBatch(Batch({Leave(3)}), [](Result<std::uint64_t>) {});
  EXPECT_EQ(root_->record_count(), 0u);
  // An upsert sent before the leave but delivered after it must not
  // resurrect the departed member.
  root_->ApplyDeltaBatch(Batch({Upsert(2, 0.9)}),
                         [](Result<std::uint64_t>) {});
  EXPECT_EQ(root_->record_count(), 0u);
}

TEST_F(VersioningFixture, UnenrolledSourceIsRefused) {
  DeltaBatch rogue = Batch({Upsert(1, 0.5)});
  rogue.source = Loid(LoidSpace::kService, 3, 999);
  rogue.domain = 3;
  Status status = Status::Ok();
  root_->ApplyDeltaBatch(rogue, [&](Result<std::uint64_t> v) {
    status = v.status();
  });
  EXPECT_EQ(status.code(), ErrorCode::kRefused);
  EXPECT_EQ(root_->record_count(), 0u);
}

TEST_F(FederationFixture, RefreshPullBoundsStaleness) {
  // A push period far longer than the test horizon: organic deltas never
  // arrive, so a bounded-staleness query must pull them.
  FederationOptions slow;
  slow.push_period = Duration::Seconds(500);
  SimKernel kernel(QuietNet());
  CollectionFederation federation(&kernel, 2, slow);
  const Loid member = kernel.minter().Mint(LoidSpace::kHost, 1);
  kernel.network().RegisterEndpoint(member, 1);
  federation.sub(1)->JoinCollection(member, Attrs("m", 0.4),
                                    [](Result<bool>) {});
  kernel.RunFor(Duration::Seconds(30));
  ASSERT_EQ(federation.root()->record_count(), 0u);  // no push yet

  QueryOptions bounded;
  bounded.max_staleness = Duration::Seconds(10);
  CollectionData answer;
  federation.root()->QueryCollection(
      "true", bounded, [&](Result<CollectionData> result) {
        ASSERT_TRUE(result.ok());
        answer = std::move(*result);
      });
  kernel.RunFor(Duration::Seconds(10));
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0].member, member);
  // Both domains were stale, and the pulls succeeded.
  EXPECT_GE(Count(kernel, "refresh_pulls", "collection"), 2u);
  EXPECT_EQ(Count(kernel, "stale_answers", "collection"), 0u);
}

TEST_F(FederationFixture, LostPushesRetransmitAfterPartitionHeals) {
  // Sever domain 0 (the root) from domain 1 before the first push fires;
  // every delta batch in the window is lost.  The journal must survive
  // and retransmit once the partition heals.
  kernel_.network().AddPartition(0, 1,
                                 kernel_.Now(),
                                 kernel_.Now() + Duration::Seconds(20));
  const Loid b = JoinMember(1, "b", 0.5);
  kernel_.RunFor(Duration::Seconds(15));
  EXPECT_EQ(federation_->root()->record_count(), 0u);
  EXPECT_FALSE(federation_->sub(1)->PendingDeltas().deltas.empty());
  // Heal; the next periodic push carries the whole backlog.
  kernel_.RunFor(Duration::Seconds(15));
  EXPECT_EQ(federation_->root()->record_count(), 1u);
  auto result = federation_->root()->QueryLocal("true");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].member, b);
}

TEST(FederatedMetacomputerTest, ScopedSchedulerPlacesInItsDomain) {
  NetworkParams net = QuietNet();
  SimKernel kernel(net);
  MetacomputerConfig config;
  config.domains = 3;
  config.hosts_per_domain = 4;
  config.heterogeneous = false;
  config.seed = 21;
  config.load.volatility = 0.0;
  config.federated = true;
  config.delta_push_period = Duration::Seconds(2);
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();
  ASSERT_NE(metacomputer.federation(), nullptr);
  EXPECT_EQ(metacomputer.collection(), metacomputer.federation()->root());
  EXPECT_EQ(metacomputer.collection()->record_count(), 12u);

  ClassObject* klass = metacomputer.MakeUniversalClass("scoped_app", 16, 0.1);
  auto* scheduler = kernel.AddActor<RandomScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      metacomputer.collection()->loid(), metacomputer.enactor()->loid(), 5);
  WorkloadSession session(&metacomputer, scheduler);
  session.ScopeToDomain(1);

  bool success = false;
  std::vector<Loid> placed_hosts;
  scheduler->ScheduleAndEnact(
      {{klass->loid(), 3}}, RunOptions{},
      [&](Result<RunOutcome> outcome) {
        success = outcome.ok() && outcome->success;
        if (!outcome.ok()) return;
        for (const auto& mapping : outcome->feedback.reserved_mappings) {
          placed_hosts.push_back(mapping.host);
        }
      });
  kernel.RunFor(Duration::Minutes(2));
  ASSERT_TRUE(success);
  ASSERT_EQ(placed_hosts.size(), 3u);
  for (const Loid& host : placed_hosts) {
    EXPECT_EQ(host.domain(), 1u) << host.ToString();
  }
}

}  // namespace
}  // namespace legion
