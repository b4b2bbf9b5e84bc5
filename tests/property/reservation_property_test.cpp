// Property tests: ReservationTable invariants under random operation
// sequences (paper Table 2 semantics must hold for every interleaving).
#include <gtest/gtest.h>

#include <vector>

#include "base/rng.h"
#include "resources/reservation.h"

namespace legion {
namespace {

constexpr std::uint32_t kCpus = 4;
constexpr double kOversub = 2.0;
constexpr std::size_t kMemory = 1024;

struct Issued {
  ReservationToken token;
  double cpu;
  std::size_t memory;
};

class ReservationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservationPropertyTest, InvariantsHoldUnderRandomOperations) {
  Rng rng(GetParam());
  TokenAuthority authority(GetParam() ^ 0xABCD);
  ReservationTable table(HostCapacity{kCpus, kMemory, kOversub});
  std::vector<Issued> live;  // tokens we believe to be live
  // Every token ever admitted, live or not.
  std::vector<ReservationToken> admitted;
  SimTime now(0);

  for (int step = 0; step < 400; ++step) {
    now = now + Duration::Seconds(rng.Uniform(0.0, 30.0));
    const double op = rng.UniformDouble();
    if (op < 0.5) {
      // Admit a random reservation.
      ReservationType type;
      type.share = rng.Bernoulli(0.7);
      type.reuse = rng.Bernoulli(0.5);
      const SimTime start = now + Duration::Seconds(rng.Uniform(0.0, 600.0));
      const Duration duration = Duration::Seconds(rng.Uniform(1.0, 1800.0));
      const double cpu = rng.Uniform(0.1, 2.0);
      const auto memory = static_cast<std::size_t>(rng.UniformInt(8, 512));
      ReservationToken token = authority.Issue(
          Loid(LoidSpace::kHost, 0, 1), Loid(LoidSpace::kVault, 0, 2), start,
          duration, Duration::Zero(), type);
      if (table.Admit(token, Loid(LoidSpace::kService, 0, 9), memory, cpu,
                      now)
              .ok()) {
        live.push_back({token, cpu, memory});
        admitted.push_back(token);
      }
    } else if (op < 0.7 && !live.empty()) {
      // Cancel a random live reservation.
      const std::size_t i = rng.Index(live.size());
      table.Cancel(live[i].token, now);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 0.9 && !live.empty()) {
      // Redeem a random one.
      const std::size_t i = rng.Index(live.size());
      (void)table.Redeem(live[i].token, now);
    } else {
      table.ExpireStale(now);
    }

    // INVARIANT 1: shared CPU admitted at any sampled instant never
    // exceeds capacity * oversubscription.
    for (int probe = 0; probe < 4; ++probe) {
      const SimTime t =
          now + Duration::Seconds(rng.Uniform(0.0, 2400.0));
      EXPECT_LE(table.SharedCpuLoadAt(t),
                kCpus * kOversub + 1e-6)
          << "at step " << step;
    }

    // INVARIANT 2: a live unshared reservation never overlaps any other
    // live reservation.
    std::vector<const ReservationRecord*> records;
    for (const Issued& issued : live) {
      const ReservationRecord* record = table.Find(issued.token.serial);
      if (record != nullptr &&
          (record->state == ReservationState::kPending ||
           record->state == ReservationState::kConfirmed)) {
        records.push_back(record);
      }
    }
    for (const auto* a : records) {
      if (a->token.type.share) continue;
      for (const auto* b : records) {
        if (a == b) continue;
        const SimTime a_end = a->token.start + a->token.duration;
        const SimTime b_end = b->token.start + b->token.duration;
        const bool overlap =
            a->token.start < b_end && b->token.start < a_end;
        EXPECT_FALSE(overlap)
            << "unshared #" << a->token.serial << " overlaps #"
            << b->token.serial << " at step " << step;
      }
    }

    // INVARIANT 3: accounting identity -- every admitted record is live
    // or has left by exactly one exit.
    const std::uint64_t accounted = table.live_count() + table.cancelled() +
                                    table.expired() + table.consumed();
    EXPECT_EQ(table.admitted(), accounted) << "at step " << step;

    // INVARIANT 4: bounded history.  Every step ran ExpireStale(now), so
    // no record whose window has closed is still in the table.
    for (const ReservationToken& token : admitted) {
      if (now < token.start + token.duration) continue;
      EXPECT_EQ(table.Find(token.serial), nullptr)
          << "closed window #" << token.serial << " kept at step " << step;
    }
  }
}

TEST_P(ReservationPropertyTest, OneShotNeverRedeemsTwice) {
  Rng rng(GetParam() * 3 + 1);
  TokenAuthority authority(GetParam());
  ReservationTable table(HostCapacity{kCpus, kMemory, kOversub});
  for (int i = 0; i < 50; ++i) {
    ReservationType type;
    type.share = true;
    type.reuse = false;
    const SimTime now(i * 1000000);
    ReservationToken token = authority.Issue(
        Loid(LoidSpace::kHost, 0, 1), Loid(LoidSpace::kVault, 0, 2), now,
        Duration::Minutes(5), Duration::Zero(), type);
    if (!table.Admit(token, Loid(), 8, 0.1, now).ok()) continue;
    int redeems = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (table.Redeem(token, now + Duration::Seconds(attempt)).ok()) {
        ++redeems;
      }
    }
    EXPECT_EQ(redeems, 1);
  }
}

TEST_P(ReservationPropertyTest, ExpiryIsMonotone) {
  // Once Check() reports false for a token, it never reports true again.
  Rng rng(GetParam() ^ 0x77);
  TokenAuthority authority(GetParam());
  ReservationTable table(HostCapacity{kCpus, kMemory, kOversub});
  std::vector<ReservationToken> tokens;
  for (int i = 0; i < 30; ++i) {
    ReservationToken token = authority.Issue(
        Loid(LoidSpace::kHost, 0, 1), Loid(LoidSpace::kVault, 0, 2),
        SimTime(rng.UniformInt(0, 1000000)),
        Duration::Seconds(rng.Uniform(1.0, 100.0)), Duration::Zero(),
        ReservationType::OneShotTimesharing());
    if (table.Admit(token, Loid(), 8, 0.1, SimTime(0)).ok()) {
      tokens.push_back(token);
    }
  }
  std::vector<bool> dead(tokens.size(), false);
  for (std::int64_t t = 0; t < 2000000; t += 100000) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const bool alive = table.Check(tokens[i], SimTime(t));
      if (dead[i]) {
        EXPECT_FALSE(alive) << "token resurrected at t=" << t;
      }
      if (!alive) dead[i] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Boundary-instant regression tests (ISSUE 4 satellite) -----------------
//
// The window is half-open [start, start + duration): at the exact instant
// now == start + duration the reservation is dead, and every entry point
// must agree -- Check, Redeem, ExpireStale, Cancel, and Admit.

TEST(ReservationBoundaryTest, WindowEdgeIsConsistentAcrossOperations) {
  TokenAuthority authority(11);
  ReservationTable table(HostCapacity{kCpus, kMemory, kOversub});
  const SimTime start(0);
  const Duration duration = Duration::Seconds(10);
  const SimTime edge = start + duration;
  ReservationToken token = authority.Issue(
      Loid(LoidSpace::kHost, 0, 1), Loid(LoidSpace::kVault, 0, 2), start,
      duration, Duration::Zero(), ReservationType::ReusableTimesharing());
  ASSERT_TRUE(table.Admit(token, Loid(), 8, 0.1, start).ok());

  // One tick before the edge: alive everywhere.
  EXPECT_TRUE(table.Check(token, edge - Duration::Micros(1)));
  // At the edge, every operation classifies the reservation as dead.
  EXPECT_FALSE(table.Check(token, edge));
  EXPECT_EQ(table.Redeem(token, edge).code(), ErrorCode::kExpired);
  EXPECT_FALSE(table.Cancel(token, edge));
  // Expired at the edge, and gone: nothing can observe it any more.
  EXPECT_EQ(table.expired(), 1u);
  EXPECT_EQ(table.cancelled(), 0u);
  EXPECT_EQ(table.Find(token.serial), nullptr);
}

TEST(ReservationBoundaryTest, CancelAtWindowEndCountsExpiredNotCancelled) {
  // Regression: Cancel used to be time-unaware, so cancelling a
  // reservation whose window had already passed flipped it to kCancelled
  // and bumped cancelled(), contradicting what ExpireStale would have
  // said one call earlier.
  TokenAuthority authority(12);
  ReservationTable table(HostCapacity{kCpus, kMemory, kOversub});
  ReservationToken token = authority.Issue(
      Loid(LoidSpace::kHost, 0, 1), Loid(LoidSpace::kVault, 0, 2), SimTime(0),
      Duration::Seconds(5), Duration::Zero(),
      ReservationType::OneShotTimesharing());
  ASSERT_TRUE(table.Admit(token, Loid(), 8, 0.1, SimTime(0)).ok());
  EXPECT_FALSE(table.Cancel(token, SimTime(0) + Duration::Seconds(5)));
  EXPECT_EQ(table.cancelled(), 0u);
  EXPECT_EQ(table.expired(), 1u);
  EXPECT_EQ(table.Redeem(token, SimTime(0) + Duration::Seconds(5)).code(),
            ErrorCode::kExpired);
  EXPECT_EQ(table.Find(token.serial), nullptr);
}

TEST(ReservationBoundaryTest, DeadOnArrivalWindowRefused) {
  // Regression: Admit accepted a window whose end coincided with (or
  // preceded) `now`; the record was born dead and expired on the next
  // ExpireStale pass, inflating admitted() with corpses.
  TokenAuthority authority(13);
  ReservationTable table(HostCapacity{kCpus, kMemory, kOversub});
  ReservationToken token = authority.Issue(
      Loid(LoidSpace::kHost, 0, 1), Loid(LoidSpace::kVault, 0, 2), SimTime(0),
      Duration::Seconds(10), Duration::Zero(),
      ReservationType::ReusableTimesharing());
  const SimTime edge = SimTime(0) + Duration::Seconds(10);
  Status at_edge = table.Admit(token, Loid(), 8, 0.1, edge);
  EXPECT_EQ(at_edge.code(), ErrorCode::kInvalidArgument);
  Status long_gone = table.Admit(token, Loid(), 8, 0.1,
                                 edge + Duration::Hours(1));
  EXPECT_EQ(long_gone.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.rejected(), 2u);
  // One tick before the edge the same window is still admissible.
  EXPECT_TRUE(
      table.Admit(token, Loid(), 8, 0.1, edge - Duration::Micros(1)).ok());
}

}  // namespace
}  // namespace legion
