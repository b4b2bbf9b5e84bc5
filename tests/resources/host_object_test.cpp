// Host Object resource-management interface (paper Table 1).
#include "resources/host_object.h"

#include <gtest/gtest.h>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class HostObjectTest : public ::testing::Test {
 protected:
  HostObjectTest() : world_() {
    host_ = world_.hosts[0];
    vault_ = world_.vaults[0];
    klass_ = world_.MakeClass("app", /*memory_mb=*/64, /*cpu=*/1.0);
  }

  ReservationRequest Request(Duration duration = Duration::Hours(1)) {
    ReservationRequest request;
    request.vault = vault_->loid();
    request.start = world_.kernel.Now();
    request.duration = duration;
    request.type = ReservationType::OneShotTimesharing();
    request.requester = Loid(LoidSpace::kService, 0, 77);
    request.requester_domain = 0;
    request.memory_mb = 64;
    request.cpu_fraction = 1.0;
    return request;
  }

  StartObjectRequest StartRequest(std::size_t count = 1,
                                  ReservationToken token = {}) {
    StartObjectRequest request;
    request.class_loid = klass_->loid();
    for (std::size_t i = 0; i < count; ++i) {
      request.instances.push_back(
          world_.kernel.minter().Mint(LoidSpace::kObject, 0));
    }
    request.token = token;
    request.vault = vault_->loid();
    request.memory_mb = 64;
    request.cpu_fraction = 1.0;
    request.factory = klass_->factory();
    return request;
  }

  TestWorld world_;
  HostObject* host_;
  VaultObject* vault_;
  ClassObject* klass_;
};

// ---- Reservation management ----------------------------------------------------

TEST_F(HostObjectTest, MakeReservationGrantsVerifiableToken) {
  Await<ReservationToken> token;
  host_->MakeReservation(Request(), token.Sink());
  ASSERT_TRUE(token.Ready());
  ASSERT_TRUE(token.Get().ok());
  EXPECT_EQ(token.Get()->host, host_->loid());
  EXPECT_EQ(token.Get()->vault, vault_->loid());
  Await<bool> check;
  host_->CheckReservation(*token.Get(), check.Sink());
  EXPECT_TRUE(*check.Get());
}

TEST_F(HostObjectTest, CancelReservationReleases) {
  Await<ReservationToken> token;
  host_->MakeReservation(Request(), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<bool> cancel;
  host_->CancelReservation(*token.Get(), cancel.Sink());
  EXPECT_TRUE(*cancel.Get());
  Await<bool> check;
  host_->CheckReservation(*token.Get(), check.Sink());
  EXPECT_FALSE(*check.Get());
}

TEST_F(HostObjectTest, ForeignTokenFailsCheckAndCancel) {
  // Tokens issued by another host do not verify here.
  ReservationRequest request = Request();
  request.vault = world_.vaults[1]->loid();  // host1's vault
  Await<ReservationToken> token;
  world_.hosts[1]->MakeReservation(request, token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<bool> check;
  host_->CheckReservation(*token.Get(), check.Sink());
  EXPECT_FALSE(*check.Get());
  Await<bool> cancel;
  host_->CancelReservation(*token.Get(), cancel.Sink());
  EXPECT_FALSE(*cancel.Get());
}

TEST_F(HostObjectTest, ReservationRequiresNamedVault) {
  ReservationRequest request = Request();
  request.vault = Loid();
  Await<ReservationToken> token;
  host_->MakeReservation(request, token.Sink());
  EXPECT_EQ(token.Get().code(), ErrorCode::kInvalidArgument);
}

TEST_F(HostObjectTest, ReservationProbesVaultOutsideItsList) {
  // A vault not on the host's compatibility list is probed live
  // (vault_OK); a public same-kind vault passes and the grant proceeds.
  ReservationRequest request = Request();
  request.vault = world_.vaults[1]->loid();  // not in host0's list
  Await<ReservationToken> token;
  host_->MakeReservation(request, token.Sink());
  world_.Run();  // the probe is an RPC
  ASSERT_TRUE(token.Ready());
  EXPECT_TRUE(token.Get().ok());
}

TEST_F(HostObjectTest, ReservationRefusesUnreachableVault) {
  // "the Host is responsible for ensuring that the vault is reachable":
  // a private vault in a foreign domain fails the probe.
  VaultSpec foreign_spec;
  foreign_spec.name = "foreign";
  foreign_spec.domain = 5;
  foreign_spec.public_access = false;
  auto* foreign = world_.kernel.AddActor<VaultObject>(
      world_.kernel.minter().Mint(LoidSpace::kVault, 5), foreign_spec);
  ReservationRequest request = Request();
  request.vault = foreign->loid();
  Await<ReservationToken> token;
  host_->MakeReservation(request, token.Sink());
  world_.Run();
  ASSERT_TRUE(token.Ready());
  EXPECT_EQ(token.Get().code(), ErrorCode::kRefused);
}

TEST_F(HostObjectTest, ReservationRefusesArchIncompatibleVault) {
  VaultSpec sparc_spec;
  sparc_spec.name = "sparc-only";
  sparc_spec.domain = 0;
  sparc_spec.compatible_arches = {"sparc"};
  auto* sparc_vault = world_.kernel.AddActor<VaultObject>(
      world_.kernel.minter().Mint(LoidSpace::kVault, 0), sparc_spec);
  ReservationRequest request = Request();
  request.vault = sparc_vault->loid();  // host is x86
  Await<ReservationToken> token;
  host_->MakeReservation(request, token.Sink());
  world_.Run();
  ASSERT_TRUE(token.Ready());
  EXPECT_EQ(token.Get().code(), ErrorCode::kRefused);
}

TEST_F(HostObjectTest, ReservationRefusesDeadVault) {
  ReservationRequest request = Request();
  request.vault = Loid(LoidSpace::kVault, 0, 31337);  // nothing there
  Await<ReservationToken> token;
  host_->MakeReservation(request, token.Sink());
  world_.Run();
  ASSERT_TRUE(token.Ready());
  EXPECT_EQ(token.Get().code(), ErrorCode::kRefused);
}

TEST_F(HostObjectTest, LocalPolicyHasFinalAuthority) {
  host_->SetPolicy(std::make_unique<DomainRefusalPolicy>(
      std::vector<std::uint32_t>{0}));
  Await<ReservationToken> token;
  host_->MakeReservation(Request(), token.Sink());
  EXPECT_EQ(token.Get().code(), ErrorCode::kRefused);
}

TEST_F(HostObjectTest, CapacityExhaustionRefusesReservations) {
  // 4 CPUs x 2.0 oversubscription = 8 concurrent units.
  for (int i = 0; i < 8; ++i) {
    Await<ReservationToken> token;
    host_->MakeReservation(Request(), token.Sink());
    ASSERT_TRUE(token.Get().ok()) << i;
  }
  Await<ReservationToken> overflow;
  host_->MakeReservation(Request(), overflow.Sink());
  EXPECT_EQ(overflow.Get().code(), ErrorCode::kNoResources);
}

// ---- Batched reservations ---------------------------------------------------

TEST_F(HostObjectTest, BatchGrantsAllSlots) {
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 77);
  batch.batch_id = 1;
  for (std::size_t i = 0; i < 4; ++i) {
    batch.slots.push_back(BatchSlotRequest{i, Request()});
  }
  Await<ReservationBatchReply> reply;
  host_->MakeReservationBatch(batch, reply.Sink());
  ASSERT_TRUE(reply.Ready());
  ASSERT_TRUE(reply.Get().ok());
  ASSERT_EQ(reply.Get()->outcomes.size(), 4u);
  for (const BatchSlotOutcome& outcome : reply.Get()->outcomes) {
    EXPECT_TRUE(outcome.status.ok());
    EXPECT_EQ(outcome.token.host, host_->loid());
    EXPECT_TRUE(host_->mutable_reservations().Check(outcome.token,
                                                    world_.kernel.Now()));
  }
  EXPECT_EQ(host_->reservations().live_count(), 4u);
}

TEST_F(HostObjectTest, BatchReportsPerSlotFailures) {
  // Slot 1 names no vault, slot 3 overflows capacity (8 cpu units, four
  // 1.0-cpu grants before it plus its own demand of 6).  The good slots
  // still land: per-slot failure, not all-or-nothing.
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 77);
  batch.batch_id = 2;
  ReservationRequest bad_vault = Request();
  bad_vault.vault = Loid();
  ReservationRequest hog = Request();
  hog.cpu_fraction = 6.0;
  batch.slots.push_back(BatchSlotRequest{0, Request()});
  batch.slots.push_back(BatchSlotRequest{1, bad_vault});
  batch.slots.push_back(BatchSlotRequest{2, Request()});
  batch.slots.push_back(BatchSlotRequest{3, hog});
  batch.slots.push_back(BatchSlotRequest{4, hog});
  Await<ReservationBatchReply> reply;
  host_->MakeReservationBatch(batch, reply.Sink());
  ASSERT_TRUE(reply.Ready());
  ASSERT_TRUE(reply.Get().ok());
  const auto& outcomes = reply.Get()->outcomes;
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[1].status.code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(outcomes[2].status.ok());
  EXPECT_TRUE(outcomes[3].status.ok());  // 1+1+6 = 8 units: fits exactly
  EXPECT_EQ(outcomes[4].status.code(), ErrorCode::kNoResources);
  EXPECT_EQ(host_->reservations().live_count(), 3u);
}

TEST_F(HostObjectTest, BatchRetransmissionReplaysCachedReply) {
  // At-most-once: resending the same batch_id returns the cached reply
  // -- identical tokens -- without admitting anything twice.
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 77);
  batch.batch_id = 7;
  for (std::size_t i = 0; i < 3; ++i) {
    batch.slots.push_back(BatchSlotRequest{i, Request()});
  }
  Await<ReservationBatchReply> first;
  host_->MakeReservationBatch(batch, first.Sink());
  ASSERT_TRUE(first.Get().ok());
  const std::size_t admitted = host_->reservations().admitted();
  const std::size_t live = host_->reservations().live_count();

  Await<ReservationBatchReply> second;
  host_->MakeReservationBatch(batch, second.Sink());
  ASSERT_TRUE(second.Get().ok());
  ASSERT_EQ(second.Get()->outcomes.size(), first.Get()->outcomes.size());
  for (std::size_t i = 0; i < first.Get()->outcomes.size(); ++i) {
    EXPECT_EQ(second.Get()->outcomes[i].token.ToString(),
              first.Get()->outcomes[i].token.ToString());
  }
  EXPECT_EQ(host_->reservations().admitted(), admitted);
  EXPECT_EQ(host_->reservations().live_count(), live);
}

TEST_F(HostObjectTest, BatchReplayCacheEvictsByAgeAndCountsMisses) {
  // Within the retention horizon a flagged retransmission replays from
  // the cache; past it the entry is evicted, the host re-admits blind,
  // and the miss is counted so the failure mode is observable.
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 77);
  batch.batch_id = 9;
  batch.slots.push_back(BatchSlotRequest{0, Request()});
  Await<ReservationBatchReply> first;
  host_->MakeReservationBatch(batch, first.Sink());
  ASSERT_TRUE(first.Get().ok());
  EXPECT_EQ(host_->reservations().admitted(), 1u);

  batch.retransmit = true;
  Await<ReservationBatchReply> replayed;
  host_->MakeReservationBatch(batch, replayed.Sink());
  ASSERT_TRUE(replayed.Get().ok());
  EXPECT_EQ(host_->batch_replay_hits(), 1u);
  EXPECT_EQ(host_->batch_replay_misses(), 0u);
  EXPECT_EQ(host_->reservations().admitted(), 1u);

  // Age the entry past the retention horizon: the cached reply is gone,
  // so the retransmission re-admits (a second serial for the same slot)
  // and the miss counter records that it happened.
  world_.kernel.RunFor(host_->spec().batch_replay_retention +
                       Duration::Seconds(1));
  Await<ReservationBatchReply> after;
  host_->MakeReservationBatch(batch, after.Sink());
  ASSERT_TRUE(after.Get().ok());
  EXPECT_EQ(host_->batch_replay_hits(), 1u);
  EXPECT_EQ(host_->batch_replay_misses(), 1u);
  EXPECT_EQ(host_->reservations().admitted(), 2u);
}

TEST_F(HostObjectTest, BatchHonorsLocalPolicyPerSlot) {
  host_->SetPolicy(std::make_unique<DomainRefusalPolicy>(
      std::vector<std::uint32_t>{3}));
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 77);
  ReservationRequest foreign = Request();
  foreign.requester_domain = 3;
  batch.slots.push_back(BatchSlotRequest{0, Request()});
  batch.slots.push_back(BatchSlotRequest{1, foreign});
  Await<ReservationBatchReply> reply;
  host_->MakeReservationBatch(batch, reply.Sink());
  ASSERT_TRUE(reply.Get().ok());
  EXPECT_TRUE(reply.Get()->outcomes[0].status.ok());
  EXPECT_EQ(reply.Get()->outcomes[1].status.code(), ErrorCode::kRefused);
}

TEST_F(HostObjectTest, BatchProbesUnlistedVaultOnce) {
  // Two slots naming the same unlisted vault share one vault_OK probe,
  // and the batch reply waits for it.
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 77);
  ReservationRequest other = Request();
  other.vault = world_.vaults[1]->loid();  // not in host0's list
  batch.slots.push_back(BatchSlotRequest{0, other});
  batch.slots.push_back(BatchSlotRequest{1, other});
  Await<ReservationBatchReply> reply;
  host_->MakeReservationBatch(batch, reply.Sink());
  EXPECT_FALSE(reply.Ready());  // probe in flight
  world_.Run();
  ASSERT_TRUE(reply.Ready());
  ASSERT_TRUE(reply.Get().ok());
  EXPECT_TRUE(reply.Get()->outcomes[0].status.ok());
  EXPECT_TRUE(reply.Get()->outcomes[1].status.ok());
}

// ---- Process management -----------------------------------------------------------

TEST_F(HostObjectTest, StartObjectWithReservation) {
  Await<ReservationToken> token;
  host_->MakeReservation(Request(), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1, *token.Get()), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  ASSERT_EQ(started.Get()->size(), 1u);
  EXPECT_EQ(host_->running_count(), 1u);
  auto* object = dynamic_cast<LegionObject*>(
      world_.kernel.FindActor(started.Get()->front()));
  ASSERT_NE(object, nullptr);
  EXPECT_TRUE(object->active());
  EXPECT_EQ(object->host(), host_->loid());
}

TEST_F(HostObjectTest, StartObjectRejectsForgedToken) {
  ReservationToken forged;
  forged.host = host_->loid();
  forged.vault = vault_->loid();
  forged.serial = 12345;
  forged.start = world_.kernel.Now();
  forged.duration = Duration::Hours(1);
  forged.mac = 0xBAD;
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1, forged), started.Sink());
  EXPECT_EQ(started.Get().code(), ErrorCode::kInvalidToken);
  EXPECT_EQ(host_->starts_refused(), 1u);
}

TEST_F(HostObjectTest, StartObjectRejectsVaultMismatch) {
  Await<ReservationToken> token;
  host_->MakeReservation(Request(), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  StartObjectRequest request = StartRequest(1, *token.Get());
  request.vault = world_.vaults[1]->loid();
  Await<std::vector<Loid>> started;
  host_->StartObject(request, started.Sink());
  EXPECT_EQ(started.Get().code(), ErrorCode::kInvalidArgument);
}

TEST_F(HostObjectTest, StartObjectWithoutTokenUsesAdmission) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1), started.Sink());
  EXPECT_TRUE(started.Get().ok());
  // Fill the machine: 8 cpu units total, 1 used.
  for (int i = 0; i < 7; ++i) {
    Await<std::vector<Loid>> more;
    host_->StartObject(StartRequest(1), more.Sink());
    ASSERT_TRUE(more.Get().ok()) << i;
  }
  Await<std::vector<Loid>> overflow;
  host_->StartObject(StartRequest(1), overflow.Sink());
  EXPECT_EQ(overflow.Get().code(), ErrorCode::kNoResources);
}

TEST_F(HostObjectTest, BatchedStartCreatesSeveral) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(3), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  EXPECT_EQ(started.Get()->size(), 3u);
  EXPECT_EQ(host_->running_count(), 3u);
  EXPECT_EQ(host_->objects_started(), 3u);
}

TEST_F(HostObjectTest, EmptyStartRequestRejected) {
  StartObjectRequest request = StartRequest(1);
  request.instances.clear();
  Await<std::vector<Loid>> started;
  host_->StartObject(request, started.Sink());
  EXPECT_EQ(started.Get().code(), ErrorCode::kInvalidArgument);
}

TEST_F(HostObjectTest, FutureReservationDefersActivation) {
  ReservationRequest reservation = Request();
  reservation.start = world_.kernel.Now() + Duration::Minutes(10);
  Await<ReservationToken> token;
  host_->MakeReservation(reservation, token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1, *token.Get()), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  const Loid instance = started.Get()->front();
  // Created but not yet active.
  auto* object =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(instance));
  ASSERT_NE(object, nullptr);
  EXPECT_FALSE(object->active());
  EXPECT_EQ(host_->running_count(), 0u);
  // The window opens.
  world_.kernel.RunFor(Duration::Minutes(11));
  EXPECT_TRUE(object->active());
  EXPECT_EQ(host_->running_count(), 1u);
}

TEST_F(HostObjectTest, KillObjectReleasesEverything) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  const Loid instance = started.Get()->front();
  Await<bool> killed;
  host_->KillObject(instance, killed.Sink());
  EXPECT_TRUE(*killed.Get());
  EXPECT_EQ(host_->running_count(), 0u);
  EXPECT_EQ(world_.kernel.FindActor(instance), nullptr);
  // Killing again fails.
  Await<bool> again;
  host_->KillObject(instance, again.Sink());
  EXPECT_FALSE(*again.Get());
}

TEST_F(HostObjectTest, DeactivateStoresOprInVault) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  const Loid instance = started.Get()->front();
  EXPECT_EQ(vault_->stored_count(), 0u);
  Await<bool> deactivated;
  host_->DeactivateObject(instance, deactivated.Sink());
  world_.Run();
  ASSERT_TRUE(deactivated.Ready());
  EXPECT_TRUE(*deactivated.Get());
  EXPECT_EQ(host_->running_count(), 0u);
  EXPECT_EQ(vault_->stored_count(), 1u);
  auto* object =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(instance));
  ASSERT_NE(object, nullptr);
  EXPECT_EQ(object->state(), ObjectState::kInactive);
}

TEST_F(HostObjectTest, ReactivateRestoresFromVault) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1), started.Sink());
  const Loid instance = started.Get()->front();
  Await<bool> deactivated;
  host_->DeactivateObject(instance, deactivated.Sink());
  world_.Run();
  ASSERT_TRUE(*deactivated.Get());
  // Reactivate on a different host (which can reach this vault? It
  // fetches by LOID regardless -- reachability was checked at
  // reservation time).
  Await<bool> reactivated;
  world_.hosts[1]->ReactivateObject(instance, vault_->loid(),
                                    reactivated.Sink());
  world_.Run();
  ASSERT_TRUE(reactivated.Ready());
  EXPECT_TRUE(*reactivated.Get());
  auto* object =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(instance));
  EXPECT_TRUE(object->active());
  EXPECT_EQ(object->host(), world_.hosts[1]->loid());
  EXPECT_EQ(world_.hosts[1]->running_count(), 1u);
}

TEST_F(HostObjectTest, FinishObjectFreesResources) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(1), started.Sink());
  host_->FinishObject(started.Get()->front());
  EXPECT_EQ(host_->running_count(), 0u);
}

// ---- Information reporting ---------------------------------------------------------

TEST_F(HostObjectTest, GetCompatibleVaults) {
  Await<std::vector<Loid>> vaults;
  host_->GetCompatibleVaults(vaults.Sink());
  ASSERT_TRUE(vaults.Get().ok());
  ASSERT_EQ(vaults.Get()->size(), 1u);
  EXPECT_EQ(vaults.Get()->front(), vault_->loid());
}

TEST_F(HostObjectTest, VaultOkProbesCompatibility) {
  Await<bool> ok;
  host_->VaultOk(vault_->loid(), ok.Sink());
  world_.Run();
  EXPECT_TRUE(*ok.Get());
  // A vault restricted to another architecture says no.
  VaultSpec picky;
  picky.name = "picky";
  picky.domain = 0;
  picky.compatible_arches = {"sparc"};
  auto* sparc_vault = world_.kernel.AddActor<VaultObject>(
      world_.kernel.minter().Mint(LoidSpace::kVault, 0), picky);
  Await<bool> not_ok;
  host_->VaultOk(sparc_vault->loid(), not_ok.Sink());
  world_.Run();
  EXPECT_FALSE(*not_ok.Get());
}

TEST_F(HostObjectTest, AttributesPopulated) {
  const AttributeDatabase& attrs = host_->attributes();
  EXPECT_EQ(attrs.Get("host_arch")->as_string(), "x86");
  EXPECT_EQ(attrs.Get("host_os_name")->as_string(), "Linux");
  EXPECT_EQ(attrs.Get("host_cpus")->as_int(), 4);
  EXPECT_EQ(attrs.Get("host_kind")->as_string(), "unix");
  EXPECT_TRUE(attrs.Has("host_load"));
  EXPECT_TRUE(attrs.Has("host_cost_per_cpu_second"));
  EXPECT_TRUE(attrs.Has("compatible_vaults"));
  EXPECT_TRUE(attrs.Has("host_policy"));
}

TEST_F(HostObjectTest, AttributesTrackRunningObjects) {
  Await<std::vector<Loid>> started;
  host_->StartObject(StartRequest(2), started.Sink());
  const AttributeDatabase& attrs = host_->attributes();
  EXPECT_EQ(attrs.Get("host_running_objects")->as_int(), 2);
  EXPECT_EQ(attrs.Get("host_available_memory_mb")->as_int(),
            1024 - 2 * 64);
}

TEST_F(HostObjectTest, EffectiveSpeedDegradesWithMultiplexing) {
  const double idle_speed = host_->EffectiveSpeedPerObject();
  for (int i = 0; i < 8; ++i) {
    Await<std::vector<Loid>> started;
    host_->StartObject(StartRequest(1), started.Sink());
    ASSERT_TRUE(started.Get().ok());
  }
  // 8 objects on 4 CPUs: each sees about half speed.
  EXPECT_NEAR(host_->EffectiveSpeedPerObject(), idle_speed / 2.0,
              idle_speed * 0.01);
}

TEST_F(HostObjectTest, PushesRecordIntoCollection) {
  EXPECT_EQ(world_.collection->record_count(), 0u);
  world_.Populate();
  EXPECT_EQ(world_.collection->record_count(), world_.hosts.size());
  auto records = world_.collection->QueryLocal("$host_arch == \"x86\"");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), world_.hosts.size());
}

TEST_F(HostObjectTest, SpikeRaisesExportedLoad) {
  world_.Populate();
  host_->SpikeLoad(3.0);
  EXPECT_GT(host_->attributes().Get("host_load")->as_double(), 2.5);
}

TEST_F(HostObjectTest, PeriodicReassessmentPushesUpdates) {
  world_.Populate();
  const auto before = Count(world_.kernel, "updates_applied", "collection");
  host_->StartReassessment();
  world_.kernel.RunFor(Duration::Minutes(1));
  host_->StopReassessment();
  EXPECT_GT(Count(world_.kernel, "updates_applied", "collection"), before + 3);
}

}  // namespace
}  // namespace legion
