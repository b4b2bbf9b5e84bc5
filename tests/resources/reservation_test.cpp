// Reservation semantics (paper section 3.1, Table 2).
#include "resources/reservation.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

Loid HostLoid() { return Loid(LoidSpace::kHost, 0, 1); }
Loid VaultLoid() { return Loid(LoidSpace::kVault, 0, 2); }
Loid Requester() { return Loid(LoidSpace::kService, 0, 3); }

class ReservationFixture : public ::testing::Test {
 protected:
  ReservationFixture()
      : authority_(99), table_(HostCapacity{4, 1024, 2.0}) {}

  ReservationToken Issue(SimTime start, Duration duration,
                         ReservationType type,
                         Duration timeout = Duration::Zero()) {
    return authority_.Issue(HostLoid(), VaultLoid(), start, duration, timeout,
                            type);
  }

  Status Admit(const ReservationToken& token, SimTime now,
               double cpu = 1.0, std::size_t memory = 64) {
    return table_.Admit(token, Requester(), memory, cpu, now);
  }

  TokenAuthority authority_;
  ReservationTable table_;
};

TEST_F(ReservationFixture, AdmitAndCheck) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_TRUE(table_.Check(token, SimTime(0)));
  EXPECT_EQ(table_.live_count(), 1u);
}

TEST_F(ReservationFixture, CheckFalseAfterWindowPasses) {
  auto token = Issue(SimTime(0), Duration::Seconds(10),
                     ReservationType::ReusableTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_TRUE(table_.Check(token, SimTime(0) + Duration::Seconds(9)));
  EXPECT_FALSE(table_.Check(token, SimTime(0) + Duration::Seconds(10)));
}

TEST_F(ReservationFixture, CancelKillsReservation) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_TRUE(table_.Cancel(token, SimTime(0)));
  EXPECT_FALSE(table_.Check(token, SimTime(1)));
  EXPECT_FALSE(table_.Cancel(token, SimTime(1)));  // second cancel fails
  EXPECT_FALSE(table_.Redeem(token, SimTime(1)).ok());
}

TEST_F(ReservationFixture, UnknownTokenNeverChecks) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing());
  EXPECT_FALSE(table_.Check(token, SimTime(0)));
  EXPECT_FALSE(table_.Cancel(token, SimTime(0)));
  EXPECT_EQ(table_.Redeem(token, SimTime(0)).code(),
            ErrorCode::kInvalidToken);
}

TEST_F(ReservationFixture, ZeroDurationRejected) {
  auto token = Issue(SimTime(0), Duration::Zero(),
                     ReservationType::OneShotTimesharing());
  EXPECT_FALSE(Admit(token, SimTime(0)).ok());
}

// ---- The reuse bit ----------------------------------------------------------

TEST_F(ReservationFixture, OneShotTokenSingleUse) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_TRUE(table_.Redeem(token, SimTime(1)).ok());
  EXPECT_EQ(table_.Redeem(token, SimTime(2)).code(),
            ErrorCode::kInvalidToken);
}

TEST_F(ReservationFixture, ReusableTokenMultipleUses) {
  // "A reusable reservation token can be passed in to multiple
  // StartObject() calls."
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::ReusableTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(table_.Redeem(token, SimTime(i)).ok()) << i;
  }
}

TEST_F(ReservationFixture, OneShotExpiresWhenJobDone) {
  // "a typical timesharing system that expires a reservation when the
  // job is done would have reuse = 0, share = 1".
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  ASSERT_TRUE(table_.Redeem(token, SimTime(1)).ok());
  table_.OnJobDone(token);
  EXPECT_EQ(table_.Find(token.serial)->state, ReservationState::kConsumed);
  EXPECT_FALSE(table_.Check(token, SimTime(2)));
}

TEST_F(ReservationFixture, ReusableSurvivesJobDone) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::ReusableTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  ASSERT_TRUE(table_.Redeem(token, SimTime(1)).ok());
  table_.OnJobDone(token);
  EXPECT_TRUE(table_.Check(token, SimTime(2)));
  EXPECT_TRUE(table_.Redeem(token, SimTime(3)).ok());
}

// ---- The share bit ------------------------------------------------------------

TEST_F(ReservationFixture, UnsharedTakesWholeResource) {
  // "An unshared reservation allocates the entire resource."
  auto exclusive = Issue(SimTime(0), Duration::Hours(1),
                         ReservationType::ReusableSpaceSharing());
  ASSERT_TRUE(Admit(exclusive, SimTime(0), /*cpu=*/1.0).ok());
  // Even a tiny shared reservation overlapping the window is refused.
  auto shared = Issue(SimTime(0) + Duration::Minutes(30), Duration::Minutes(5),
                      ReservationType::OneShotTimesharing());
  EXPECT_EQ(Admit(shared, SimTime(0), /*cpu=*/0.01).code(),
            ErrorCode::kNoResources);
}

TEST_F(ReservationFixture, UnsharedRefusedOverAnyOverlap) {
  auto shared = Issue(SimTime(0), Duration::Hours(1),
                      ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(shared, SimTime(0), /*cpu=*/0.1).ok());
  auto exclusive = Issue(SimTime(0) + Duration::Minutes(59), Duration::Hours(1),
                         ReservationType::OneShotSpaceSharing());
  EXPECT_EQ(Admit(exclusive, SimTime(0)).code(), ErrorCode::kNoResources);
}

TEST_F(ReservationFixture, DisjointWindowsCoexist) {
  auto morning = Issue(SimTime(0), Duration::Hours(1),
                       ReservationType::ReusableSpaceSharing());
  auto afternoon = Issue(SimTime(0) + Duration::Hours(2), Duration::Hours(1),
                         ReservationType::ReusableSpaceSharing());
  EXPECT_TRUE(Admit(morning, SimTime(0)).ok());
  EXPECT_TRUE(Admit(afternoon, SimTime(0)).ok());
  EXPECT_EQ(table_.live_count(), 2u);
}

TEST_F(ReservationFixture, SharedMultiplexesUpToCapacity) {
  // Capacity: 4 CPUs x 2.0 oversubscription = 8 concurrent CPU units.
  for (int i = 0; i < 8; ++i) {
    auto token = Issue(SimTime(0), Duration::Hours(1),
                       ReservationType::OneShotTimesharing());
    EXPECT_TRUE(Admit(token, SimTime(0), /*cpu=*/1.0, /*mem=*/64).ok()) << i;
  }
  auto overflow = Issue(SimTime(0), Duration::Hours(1),
                        ReservationType::OneShotTimesharing());
  EXPECT_EQ(Admit(overflow, SimTime(0)).code(), ErrorCode::kNoResources);
}

TEST_F(ReservationFixture, SharedMemoryIsAlsoBounded) {
  auto big = Issue(SimTime(0), Duration::Hours(1),
                   ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(big, SimTime(0), /*cpu=*/0.5, /*mem=*/900).ok());
  auto second = Issue(SimTime(0), Duration::Hours(1),
                      ReservationType::OneShotTimesharing());
  EXPECT_EQ(Admit(second, SimTime(0), /*cpu=*/0.5, /*mem=*/200).code(),
            ErrorCode::kNoResources);
}

TEST_F(ReservationFixture, MemoryOverCapacityRejectedOutright) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing());
  EXPECT_FALSE(Admit(token, SimTime(0), 1.0, /*mem=*/4096).ok());
}

// ---- Timeouts --------------------------------------------------------------------

TEST_F(ReservationFixture, PendingReservationExpiresAfterConfirmTimeout) {
  // "The timeout period indicates how long the recipient has to confirm
  // the reservation if the start time indicates an instantaneous
  // reservation."
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::OneShotTimesharing(),
                     /*timeout=*/Duration::Minutes(5));
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_TRUE(table_.Check(token, SimTime(0) + Duration::Minutes(4)));
  EXPECT_FALSE(table_.Check(token, SimTime(0) + Duration::Minutes(5)));
  EXPECT_EQ(table_.Redeem(token, SimTime(0) + Duration::Minutes(6)).code(),
            ErrorCode::kExpired);
}

TEST_F(ReservationFixture, ConfirmationStopsTheTimeout) {
  auto token = Issue(SimTime(0), Duration::Hours(1),
                     ReservationType::ReusableTimesharing(),
                     /*timeout=*/Duration::Minutes(5));
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  // Presenting the token with StartObject is the implicit confirmation.
  ASSERT_TRUE(table_.Redeem(token, SimTime(0) + Duration::Minutes(1)).ok());
  EXPECT_TRUE(table_.Check(token, SimTime(0) + Duration::Minutes(30)));
}

TEST_F(ReservationFixture, EarlyPresentationConfirmsFutureReservation) {
  auto token = Issue(SimTime(0) + Duration::Hours(1), Duration::Hours(1),
                     ReservationType::ReusableTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_TRUE(table_.Redeem(token, SimTime(0)).ok());
}

TEST_F(ReservationFixture, RedeemAfterWindowExpires) {
  auto token = Issue(SimTime(0), Duration::Seconds(10),
                     ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(token, SimTime(0)).ok());
  EXPECT_EQ(table_.Redeem(token, SimTime(0) + Duration::Seconds(11)).code(),
            ErrorCode::kExpired);
}

TEST_F(ReservationFixture, ExpiredReservationFreesCapacity) {
  auto exclusive = Issue(SimTime(0), Duration::Seconds(10),
                         ReservationType::ReusableSpaceSharing());
  ASSERT_TRUE(Admit(exclusive, SimTime(0)).ok());
  // After expiry a new exclusive reservation over the same span works.
  auto next = Issue(SimTime(0) + Duration::Seconds(20), Duration::Hours(1),
                    ReservationType::ReusableSpaceSharing());
  EXPECT_TRUE(Admit(next, SimTime(0) + Duration::Seconds(20)).ok());
  EXPECT_GE(table_.expired(), 1u);
}

TEST_F(ReservationFixture, StatsCount) {
  auto a = Issue(SimTime(0), Duration::Hours(1),
                 ReservationType::ReusableSpaceSharing());
  ASSERT_TRUE(Admit(a, SimTime(0)).ok());
  auto b = Issue(SimTime(0), Duration::Hours(1),
                 ReservationType::ReusableSpaceSharing());
  ASSERT_FALSE(Admit(b, SimTime(0)).ok());
  table_.Cancel(a, SimTime(0));
  EXPECT_EQ(table_.admitted(), 1u);
  EXPECT_EQ(table_.rejected(), 1u);
  EXPECT_EQ(table_.cancelled(), 1u);
}

TEST_F(ReservationFixture, SharedCpuLoadAtInstant) {
  auto a = Issue(SimTime(0), Duration::Hours(1),
                 ReservationType::OneShotTimesharing());
  auto b = Issue(SimTime(0) + Duration::Minutes(30), Duration::Hours(1),
                 ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(a, SimTime(0), 1.0).ok());
  ASSERT_TRUE(Admit(b, SimTime(0), 2.0).ok());
  EXPECT_DOUBLE_EQ(table_.SharedCpuLoadAt(SimTime(0) + Duration::Minutes(10)),
                   1.0);
  EXPECT_DOUBLE_EQ(table_.SharedCpuLoadAt(SimTime(0) + Duration::Minutes(45)),
                   3.0);
  EXPECT_DOUBLE_EQ(
      table_.SharedCpuLoadAt(SimTime(0) + Duration::Minutes(80)), 2.0);
}

// ---- All four Table-2 types, parameterized -------------------------------------

struct TypeCase {
  ReservationType type;
  const char* name;
};

class ReservationTypeSweep : public ::testing::TestWithParam<TypeCase> {};

TEST_P(ReservationTypeSweep, AdmitCheckRedeemLifecycle) {
  TokenAuthority authority(7);
  ReservationTable table(HostCapacity{4, 1024, 2.0});
  auto token = authority.Issue(HostLoid(), VaultLoid(), SimTime(0),
                               Duration::Hours(1), Duration::Zero(),
                               GetParam().type);
  ASSERT_TRUE(table.Admit(token, Requester(), 64, 1.0, SimTime(0)).ok());
  EXPECT_TRUE(table.Check(token, SimTime(1)));
  EXPECT_TRUE(table.Redeem(token, SimTime(1)).ok());
  // Reuse bit controls the second presentation.
  const bool second_ok = table.Redeem(token, SimTime(2)).ok();
  EXPECT_EQ(second_ok, GetParam().type.reuse);
  // Cancel always succeeds while live.
  EXPECT_TRUE(table.Cancel(token, SimTime(2)));
}

TEST_P(ReservationTypeSweep, ShareBitControlsCoexistence) {
  TokenAuthority authority(7);
  ReservationTable table(HostCapacity{4, 1024, 2.0});
  auto first = authority.Issue(HostLoid(), VaultLoid(), SimTime(0),
                               Duration::Hours(1), Duration::Zero(),
                               GetParam().type);
  ASSERT_TRUE(table.Admit(first, Requester(), 64, 1.0, SimTime(0)).ok());
  auto second = authority.Issue(HostLoid(), VaultLoid(), SimTime(0),
                                Duration::Hours(1), Duration::Zero(),
                                ReservationType::OneShotTimesharing());
  const bool coexists =
      table.Admit(second, Requester(), 64, 1.0, SimTime(0)).ok();
  EXPECT_EQ(coexists, GetParam().type.share);
}

INSTANTIATE_TEST_SUITE_P(
    TableTwo, ReservationTypeSweep,
    ::testing::Values(
        TypeCase{ReservationType::OneShotSpaceSharing(), "oneshot_space"},
        TypeCase{ReservationType::ReusableSpaceSharing(), "reusable_space"},
        TypeCase{ReservationType::OneShotTimesharing(), "oneshot_time"},
        TypeCase{ReservationType::ReusableTimesharing(), "reusable_time"}),
    [](const ::testing::TestParamInfo<TypeCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace legion
