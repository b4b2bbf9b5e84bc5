// Batched-negotiation properties (DESIGN.md §11).
//
// 1. Equivalence: the batch cap is a wire-level optimization only.  For
//    the same seed and schedule, one RPC per mapping (cap 1) and any
//    batched cap decide identically -- same winner, same reserved
//    mappings, same token serials, same per-host admission counters,
//    same Collection contents.
// 2. At-most-once under chaos: a batch whose reply is lost in a
//    partition is retransmitted with the same batch id, and the host
//    replays its cached decision -- or, if the original is still waiting
//    on a vault probe, joins it -- instead of admitting the slots twice.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/enactor.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::AuditKeys;
using testing::Await;
using testing::Count;
using testing::TestWorld;
using testing::TestWorldConfig;

// A deterministic world for the equivalence property: zero jitter so the
// cap-1 path's concurrent per-slot RPCs arrive in send order, making
// token serials comparable slot-for-slot against the batched path.
TestWorldConfig QuietConfig() {
  TestWorldConfig config;
  config.hosts = 4;
  config.net.jitter_fraction = 0.0;
  return config;
}

std::string TokenFingerprint(const ReservationToken& token) {
  std::ostringstream out;
  // start/mac are timing-dependent (a batch request is bigger on the
  // wire, so it lands microseconds later); everything decision-level
  // must match exactly.
  out << token.host.ToString() << '/' << token.vault.ToString() << " #"
      << token.serial << " dur=" << token.duration.micros()
      << " type=" << static_cast<int>(token.type.bits());
  return out.str();
}

// One negotiation exercising grants, a capacity rejection, a policy
// refusal, and two repairing variants, fingerprinted decision-by-decision.
std::string NegotiationFingerprint(std::size_t batch_cap) {
  TestWorld world(QuietConfig());
  world.Populate();
  ClassObject* klass = world.MakeClass("app", 16, 1.0);
  world.enactor->options().max_batch_size = batch_cap;
  // Host 1 refuses domain 0 (the enactor's domain).
  world.hosts[1]->SetPolicy(
      std::make_unique<DomainRefusalPolicy>(std::vector<std::uint32_t>{0}));

  auto mapping_to = [&](std::size_t host_index) {
    ObjectMapping mapping;
    mapping.class_loid = klass->loid();
    mapping.host = world.hosts[host_index]->loid();
    mapping.vault = world.vaults[host_index]->loid();
    return mapping;
  };

  // Master: nine 1.0-cpu slots against host 0's eight units (slot 8
  // overflows), slot 9 against the refusing host 1, slots 10-11 on
  // host 2.  Variants move the two failures to hosts 2 and 3.
  ScheduleRequestList request;
  MasterSchedule master;
  for (std::size_t i = 0; i < 9; ++i) master.mappings.push_back(mapping_to(0));
  master.mappings.push_back(mapping_to(1));
  master.mappings.push_back(mapping_to(2));
  master.mappings.push_back(mapping_to(2));
  const std::size_t width = master.mappings.size();
  VariantSchedule fix_capacity;
  fix_capacity.replaces.Resize(width);
  fix_capacity.replaces.Set(8);
  fix_capacity.mappings.emplace_back(8, mapping_to(2));
  master.variants.push_back(fix_capacity);
  VariantSchedule fix_refusal;
  fix_refusal.replaces.Resize(width);
  fix_refusal.replaces.Set(9);
  fix_refusal.mappings.emplace_back(9, mapping_to(3));
  master.variants.push_back(fix_refusal);
  request.masters.push_back(master);

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(request, feedback.Sink());
  world.Run();
  EXPECT_TRUE(feedback.Ready());
  EXPECT_TRUE(feedback.Get().ok());
  const ScheduleFeedback& result = *feedback.Get();

  std::ostringstream fingerprint;
  fingerprint << "success:" << result.success << '\n';
  if (result.winner.has_value()) {
    fingerprint << "winner:" << result.winner->master_index << " variants:";
    for (std::size_t v : result.winner->variant_indices) fingerprint << v << ',';
    fingerprint << '\n';
  }
  for (std::size_t i = 0; i < result.reserved_mappings.size(); ++i) {
    fingerprint << i << ": " << result.reserved_mappings[i].ToString()
                << " token " << TokenFingerprint(result.tokens[i]) << '\n';
  }
  auto enactor = [&](const char* name) {
    return Count(world.kernel, name, "enactor");
  };
  fingerprint << "granted:" << enactor("reservations_granted")
              << " failed:" << enactor("reservations_failed")
              << " cancelled:" << enactor("reservations_cancelled")
              << " rereservations:" << enactor("rereservations") << '\n';
  for (std::size_t h = 0; h < world.hosts.size(); ++h) {
    const ReservationTable& table = world.hosts[h]->reservations();
    fingerprint << "host" << h << " admitted:" << table.admitted()
                << " rejected:" << table.rejected()
                << " cancelled:" << table.cancelled()
                << " live:" << table.live_count() << '\n';
  }
  auto records = world.collection->QueryLocal("true");
  EXPECT_TRUE(records.ok());
  for (const CollectionRecord& record : *records) {
    fingerprint << record.member.ToString() << " => "
                << record.attributes.ToString() << '\n';
  }
  return fingerprint.str();
}

TEST(BatchEquivalence, AnyCapDecidesLikeTheLegacyPath) {
  const std::string legacy = NegotiationFingerprint(1);
  EXPECT_NE(legacy.find("success:1"), std::string::npos);
  EXPECT_EQ(legacy, NegotiationFingerprint(8));
  // A cap that forces chunking (9 host-0 slots in chunks of 4) must not
  // change decisions either.
  EXPECT_EQ(legacy, NegotiationFingerprint(4));
}

TEST(BatchEquivalence, SameSeedSameBatchedNegotiation) {
  EXPECT_EQ(NegotiationFingerprint(8), NegotiationFingerprint(8));
}

// At-most-once retransmission holds at cap 1 (one make_reservation RPC
// per mapping, each a one-slot batch with its own id) as at a batched
// cap.
class BatchCapTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(
    Caps, BatchCapTest, ::testing::Values(std::size_t{1}, std::size_t{64}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "Cap" + std::to_string(info.param);
    });

TEST_P(BatchCapTest, LostReplyRetransmitsWithoutDoubleAdmit) {
  // Enactor (domain 0) negotiates with a host across a WAN that eats the
  // batch reply: the request lands and admits, the reply dies in a
  // partition, the enactor times out and retransmits the same batch id,
  // and the host replays its cached reply.  The slots are admitted once.
  TestWorldConfig config;
  config.hosts = 2;
  config.domains = 2;
  config.net.jitter_fraction = 0.0;
  TestWorld world(config);
  world.Populate();
  ClassObject* klass = world.MakeClass("app", 16, 1.0);
  world.enactor->options().max_batch_size = GetParam();
  world.enactor->options().rpc_timeout = Duration::Seconds(2);
  // Keep the breaker out of the way: one lost reply fails all three
  // slots at once, which must not trip health (threshold 3 would).
  world.enactor->health().options().host_failure_threshold = 10;

  const SimTime t0 = world.kernel.Now();
  // Loss is decided at send time, so the request (sent at t0, before the
  // partition opens) gets through and admits, while the reply (sent on
  // arrival at ~t0+30 ms, inside the window) is dropped.  The window
  // closes before the retry fires (timeout 2 s + backoff >= 150 ms).
  world.kernel.network().AddPartition(0, 1, t0 + Duration::Millis(10),
                                      t0 + Duration::Seconds(2) +
                                          Duration::Millis(100));

  ScheduleRequestList request;
  MasterSchedule master;
  for (int i = 0; i < 3; ++i) {
    ObjectMapping mapping;
    mapping.class_loid = klass->loid();
    mapping.host = world.hosts[1]->loid();  // domain 1: crosses the WAN
    mapping.vault = world.vaults[1]->loid();
    master.mappings.push_back(mapping);
  }
  request.masters.push_back(master);

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(request, feedback.Sink());
  world.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get().ok());
  EXPECT_TRUE(feedback.Get()->success);
  ASSERT_EQ(feedback.Get()->tokens.size(), 3u);

  // The retry happened, and the host decided each slot exactly once,
  // replaying every retransmitted id: one per slot at cap 1, one for the
  // whole batch otherwise.
  EXPECT_GE(Count(world.kernel, "retries", "enactor"), 3u);
  const ReservationTable& table = world.hosts[1]->reservations();
  EXPECT_EQ(table.admitted(), 3u);
  EXPECT_EQ(table.live_count(), 3u);
  EXPECT_EQ(world.hosts[1]->batch_replay_hits(), GetParam() == 1 ? 3u : 1u);
  EXPECT_EQ(world.hosts[1]->batch_replay_misses(), 0u);
  // Every returned token is the one the first (lost-reply) admission
  // created: serials 1..3, all verifiable at the host.
  for (const ReservationToken& token : feedback.Get()->tokens) {
    EXPECT_LE(token.serial, 3u);
    Await<bool> check;
    world.hosts[1]->CheckReservation(token, check.Sink());
    EXPECT_TRUE(*check.Get());
  }
}

TEST_P(BatchCapTest, LostRequestRetransmitsFlaggedAndCountsAMiss) {
  // The first send dies in a partition, so the host never sees its id.
  // The retransmission carries the retransmit flag, so the host, which
  // has no entry for the id, admits it and counts the miss: one per
  // mapping at cap 1, one for the whole batch otherwise.
  TestWorldConfig config;
  config.hosts = 2;
  config.domains = 2;
  config.net.jitter_fraction = 0.0;
  TestWorld world(config);
  world.Populate();
  ClassObject* klass = world.MakeClass("app", 16, 1.0);
  world.enactor->options().max_batch_size = GetParam();
  world.enactor->options().rpc_timeout = Duration::Seconds(2);
  world.enactor->health().options().host_failure_threshold = 10;

  // Loss is decided at send time: the requests, sent at t0, are dropped,
  // and the window closes before the retries fire.
  const SimTime t0 = world.kernel.Now();
  world.kernel.network().AddPartition(0, 1, t0, t0 + Duration::Seconds(1));

  ScheduleRequestList request;
  MasterSchedule master;
  for (int i = 0; i < 3; ++i) {
    ObjectMapping mapping;
    mapping.class_loid = klass->loid();
    mapping.host = world.hosts[1]->loid();  // domain 1: crosses the WAN
    mapping.vault = world.vaults[1]->loid();
    master.mappings.push_back(mapping);
  }
  request.masters.push_back(master);

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(request, feedback.Sink());
  world.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get().ok());
  EXPECT_TRUE(feedback.Get()->success);

  EXPECT_GE(Count(world.kernel, "retries", "enactor"), 3u);
  const HostObject& host = *world.hosts[1];
  EXPECT_EQ(host.reservations().admitted(), 3u);
  EXPECT_EQ(host.batch_replay_hits(), 0u);
  EXPECT_EQ(host.batch_replay_misses(), GetParam() == 1 ? 3u : 1u);
}

TEST(BatchEquivalence, RetransmissionJoinsBatchStillProbingVault) {
  // Host 0 must probe a vault in the other domain before it can admit,
  // and the probe outlives the enactor's RPC timeout twice over.  Both
  // retransmissions arrive while the original batch is still waiting on
  // the probe: they join it and get its reply instead of admitting the
  // slot again.
  TestWorldConfig config;
  config.hosts = 2;
  config.domains = 2;
  config.net.jitter_fraction = 0.0;
  config.net.inter_domain_latency = Duration::Seconds(3);  // the one WAN link
  TestWorld world(config);
  world.Populate();
  ClassObject* klass = world.MakeClass("app", 16, 1.0);
  world.enactor->options().rpc_timeout = Duration::Seconds(2);

  ScheduleRequestList request;
  MasterSchedule master;
  ObjectMapping mapping;
  mapping.class_loid = klass->loid();
  mapping.host = world.hosts[0]->loid();    // domain 0, local to the enactor
  mapping.vault = world.vaults[1]->loid();  // domain 1: probed over the WAN
  master.mappings.push_back(mapping);
  request.masters.push_back(master);

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(request, feedback.Sink());
  world.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get().ok());
  EXPECT_TRUE(feedback.Get()->success);

  const HostObject& host = *world.hosts[0];
  EXPECT_EQ(host.reservations().admitted(), 1u);
  EXPECT_EQ(host.reservations().live_count(), 1u);
  EXPECT_EQ(host.batch_replay_hits(), 2u);
  EXPECT_EQ(host.batch_replay_misses(), 0u);
}

TEST(BatchEquivalence, PartialRetryRetransmitsOriginalBatchAndCancelsStrays) {
  // A 5-slot batch is admitted but its reply is lost.  At the timeout
  // the per-slot health bookkeeping opens the host breaker mid-loop:
  // slots 0-1 are judged retryable before it opens, slots 2-4 are
  // abandoned after it.  The retransmission must go out under the
  // ORIGINAL batch id with the original 5-slot payload so the host
  // replays its cached decisions instead of double-admitting the
  // retried slots; the stray grants for the abandoned slots are
  // cancelled, and variants re-aim those mappings at the local host.
  TestWorldConfig config;
  config.hosts = 2;
  config.domains = 2;
  config.net.jitter_fraction = 0.0;
  TestWorld world(config);
  world.Populate();
  ClassObject* klass = world.MakeClass("app", 16, 1.0);
  world.enactor->options().rpc_timeout = Duration::Seconds(2);
  world.enactor->options().retry.base_delay = Duration::Seconds(1);
  world.enactor->options().retry.jitter_fraction = 0.0;
  // Threshold 3 against 5 recorded failures opens the breaker while the
  // timed-out batch is being processed, splitting it into retryable and
  // abandoned slots; the short cooldown lets the retransmission through
  // as a half-open probe after the 1 s backoff.
  world.enactor->health().options().host_failure_threshold = 3;
  world.enactor->health().options().host_cooldown = Duration::Millis(500);
  world.enactor->health().options().domain_failure_threshold = 100;
  // An observer: the audit log must not change what is decided.
  world.kernel.audit().Enable();

  const SimTime t0 = world.kernel.Now();
  // The request (sent at t0) lands and admits; the reply dies in the
  // partition, which heals before the retransmission fires at ~t0+3s.
  world.kernel.network().AddPartition(0, 1, t0 + Duration::Millis(10),
                                      t0 + Duration::Seconds(1));

  auto mapping_to = [&](std::size_t host_index) {
    ObjectMapping mapping;
    mapping.class_loid = klass->loid();
    mapping.host = world.hosts[host_index]->loid();
    mapping.vault = world.vaults[host_index]->loid();
    return mapping;
  };
  ScheduleRequestList request;
  MasterSchedule master;
  for (int i = 0; i < 5; ++i) master.mappings.push_back(mapping_to(1));
  const std::size_t width = master.mappings.size();
  // One variant per abandoned slot, re-aiming it at host 0 (domain 0,
  // unaffected by the partition or the breaker).
  for (std::size_t i = 2; i < 5; ++i) {
    VariantSchedule variant;
    variant.replaces.Resize(width);
    variant.replaces.Set(i);
    variant.mappings.emplace_back(i, mapping_to(0));
    master.variants.push_back(variant);
  }
  request.masters.push_back(master);

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(request, feedback.Sink());
  world.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get().ok());
  EXPECT_TRUE(feedback.Get()->success);

  // The host admitted each slot exactly once (on the first, lost-reply
  // transmission) and served the retransmission from the replay cache.
  const ReservationTable& table = world.hosts[1]->reservations();
  EXPECT_EQ(table.admitted(), 5u);
  EXPECT_EQ(world.hosts[1]->batch_replay_hits(), 1u);
  EXPECT_EQ(world.hosts[1]->batch_replay_misses(), 0u);
  // The stray grants for the three abandoned slots were cancelled,
  // leaving exactly the two retried slots live there; the variants
  // placed the other three on host 0.
  EXPECT_EQ(table.cancelled(), 3u);
  EXPECT_EQ(table.live_count(), 2u);
  EXPECT_EQ(world.hosts[0]->reservations().live_count(), 3u);
  // Each stray cancel is audited as a slot record.
  const auto strays = AuditKeys(world.kernel.audit(), "stray_grant_cancelled");
  ASSERT_EQ(strays.size(), 3u);
  for (const auto& keys : strays) {
    EXPECT_EQ(keys, (std::vector<std::string>{"nid", "slot", "host"}));
  }
}

}  // namespace
}  // namespace legion
