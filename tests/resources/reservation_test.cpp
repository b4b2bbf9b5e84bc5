// Reservation semantics (paper section 3.1, Table 2).
#include "resources/reservation.h"

#include <gtest/gtest.h>

#include <vector>

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
  // A consumed record leaves the table at once.
  EXPECT_EQ(table_.Find(token.serial), nullptr);
  EXPECT_EQ(table_.consumed(), 1u);
  EXPECT_EQ(table_.live_count(), 0u);
  EXPECT_FALSE(table_.Check(token, SimTime(2)));
  EXPECT_EQ(table_.Redeem(token, SimTime(2)).code(),
            ErrorCode::kInvalidToken);
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

// ---- Record lifecycle: the table keeps only live records ------------------

// Every admitted record is live or has left by exactly one exit.
std::uint64_t Accounted(const ReservationTable& table) {
  return table.live_count() + table.cancelled() + table.expired() +
         table.consumed();
}

TEST_F(ReservationFixture, DeadTokensInsideTheirWindowAreInvalid) {
  const SimTime t0(0);
  const Duration hour = Duration::Hours(1);
  auto cancelled = Issue(t0, hour, ReservationType::OneShotTimesharing());
  auto used = Issue(t0, hour, ReservationType::OneShotTimesharing());
  auto done = Issue(t0, hour, ReservationType::OneShotTimesharing());
  auto unknown = Issue(t0, hour, ReservationType::OneShotTimesharing());
  ASSERT_TRUE(Admit(cancelled, t0).ok());
  ASSERT_TRUE(Admit(used, t0).ok());
  ASSERT_TRUE(Admit(done, t0).ok());
  ASSERT_TRUE(table_.Cancel(cancelled, t0));
  ASSERT_TRUE(table_.Redeem(used, t0).ok());
  ASSERT_TRUE(table_.Redeem(done, t0).ok());
  table_.OnJobDone(done);

  const SimTime inside = t0 + Duration::Minutes(30);
  for (const auto& token : {cancelled, used, done, unknown}) {
    EXPECT_EQ(table_.Redeem(token, inside).code(), ErrorCode::kInvalidToken)
        << "serial " << token.serial;
  }
  // The used one-shot still holds its window while its job runs; the
  // other dead tokens have left the table.
  EXPECT_TRUE(table_.Check(used, inside));
  EXPECT_EQ(table_.size(), 1u);
}

TEST_F(ReservationFixture, LapsedConfirmationAnswersExpiredUntilWindowEnd) {
  const SimTime t0(0);
  auto token = Issue(t0, Duration::Hours(1),
                     ReservationType::OneShotTimesharing(),
                     /*timeout=*/Duration::Minutes(5));
  ASSERT_TRUE(Admit(token, t0).ok());
  EXPECT_EQ(table_.ExpireStale(t0 + Duration::Minutes(5)), 1u);
  // Counted expired at once, but kept so Redeem still owes kExpired.
  EXPECT_EQ(table_.expired(), 1u);
  EXPECT_EQ(table_.live_count(), 0u);
  ASSERT_NE(table_.Find(token.serial), nullptr);
  EXPECT_EQ(table_.Redeem(token, t0 + Duration::Minutes(30)).code(),
            ErrorCode::kExpired);
  EXPECT_FALSE(table_.Cancel(token, t0 + Duration::Minutes(30)));
  // At the window end the record leaves without being counted twice.
  EXPECT_EQ(table_.ExpireStale(t0 + Duration::Hours(1)), 0u);
  EXPECT_EQ(table_.Find(token.serial), nullptr);
  EXPECT_EQ(table_.expired(), 1u);
  EXPECT_EQ(table_.Redeem(token, t0 + Duration::Hours(2)).code(),
            ErrorCode::kExpired);
}

TEST_F(ReservationFixture, EveryTokenPastItsWindowAnswersExpired) {
  const SimTime t0(0);
  const Duration hour = Duration::Hours(1);
  auto expired = Issue(t0, hour, ReservationType::ReusableTimesharing());
  auto cancelled = Issue(t0, hour, ReservationType::OneShotTimesharing());
  auto done = Issue(t0, hour, ReservationType::OneShotTimesharing());
  auto lapsed = Issue(t0, hour, ReservationType::OneShotTimesharing(),
                      /*timeout=*/Duration::Minutes(5));
  auto unknown = Issue(t0, hour, ReservationType::OneShotTimesharing());
  for (const auto& token : {expired, cancelled, done, lapsed}) {
    ASSERT_TRUE(Admit(token, t0).ok());
  }
  ASSERT_TRUE(table_.Cancel(cancelled, t0));
  ASSERT_TRUE(table_.Redeem(done, t0).ok());
  table_.OnJobDone(done);

  // At the edge and long after it, every dead token gets the same code.
  for (const SimTime now : {t0 + hour, t0 + hour * 10.0}) {
    for (const auto& token : {expired, cancelled, done, lapsed, unknown}) {
      EXPECT_EQ(table_.Redeem(token, now).code(), ErrorCode::kExpired)
          << "serial " << token.serial << " at " << now.ToString();
    }
  }
  EXPECT_EQ(table_.size(), 0u);
  EXPECT_EQ(table_.admitted(), Accounted(table_));
}

TEST_F(ReservationFixture, HistoryStaysBoundedOverALongStream) {
  // Fifty simulated hours of admit, redeem, job-done, cancel and
  // let-expire, with one-hour windows.  The table never holds more
  // records than there are open windows, and empties once they close.
  TokenAuthority authority(5);
  ReservationTable table(HostCapacity{64, 1 << 20, 1.0});
  std::vector<ReservationToken> admitted;
  const Duration window = Duration::Hours(1);
  const Duration step = Duration::Minutes(2);
  const SimTime last = SimTime(0) + Duration::Hours(50);
  std::size_t i = 0;
  for (SimTime now(0); now < last; now = now + step, ++i) {
    ReservationType type = ReservationType::ReusableTimesharing();
    if (i % 2 == 0) type = ReservationType::OneShotTimesharing();
    Duration timeout = Duration::Zero();
    if (i % 5 == 4) timeout = Duration::Minutes(10);
    ReservationToken token = authority.Issue(HostLoid(), VaultLoid(), now,
                                             window, timeout, type);
    ASSERT_TRUE(table.Admit(token, Requester(), 1, 0.5, now).ok());
    admitted.push_back(token);
    // Act on the reservation admitted ten minutes ago.
    if (i >= 5) {
      const ReservationToken& older = admitted[i - 5];
      switch (i % 5) {
        case 0:
          ASSERT_TRUE(table.Redeem(older, now).ok());
          table.OnJobDone(older);
          break;
        case 1:
          ASSERT_TRUE(table.Cancel(older, now));
          break;
        case 2:
          ASSERT_TRUE(table.Redeem(older, now).ok());
          break;
        default:
          break;  // left to expire (case 4 misses its confirmation)
      }
    }
    table.ExpireStale(now);
    std::size_t open = 0;
    for (const auto& token : admitted) {
      if (now < token.start + token.duration) ++open;
    }
    ASSERT_LE(table.size(), open) << "at " << now.ToString();
    ASSERT_EQ(table.admitted(), Accounted(table));
  }
  table.ExpireStale(admitted.back().start + window);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.admitted(), admitted.size());
  EXPECT_EQ(table.admitted(), Accounted(table));
}

TEST_F(ReservationFixture, LaterAdmitWithEarlierDeadlineExpiresOnTime) {
  const SimTime t0(0);
  auto long_window = Issue(t0, Duration::Hours(1),
                           ReservationType::ReusableTimesharing());
  ASSERT_TRUE(Admit(long_window, t0).ok());
  // Admitted later, but due first: its confirmation lapses at t0 + 3 min.
  const SimTime admitted_at = t0 + Duration::Minutes(1);
  auto due_first = Issue(admitted_at, Duration::Hours(1),
                         ReservationType::OneShotTimesharing(),
                         /*timeout=*/Duration::Minutes(2));
  ASSERT_TRUE(Admit(due_first, admitted_at).ok());
  const SimTime deadline = admitted_at + Duration::Minutes(2);
  EXPECT_EQ(table_.ExpireStale(deadline - Duration::Micros(1)), 0u);
  EXPECT_TRUE(table_.Check(due_first, deadline - Duration::Micros(1)));
  EXPECT_EQ(table_.ExpireStale(deadline), 1u);
  EXPECT_EQ(table_.Redeem(due_first, deadline).code(), ErrorCode::kExpired);
  EXPECT_TRUE(table_.Check(long_window, deadline));
  EXPECT_EQ(table_.live_count(), 1u);
}

TEST_F(ReservationFixture, CancellingTheEarliestDeadlineIsHarmless) {
  const SimTime t0(0);
  auto short_window = Issue(t0, Duration::Seconds(10),
                            ReservationType::ReusableTimesharing());
  auto long_window = Issue(t0, Duration::Hours(1),
                           ReservationType::ReusableTimesharing());
  ASSERT_TRUE(Admit(short_window, t0).ok());
  ASSERT_TRUE(Admit(long_window, t0).ok());
  ASSERT_TRUE(table_.Cancel(short_window, t0 + Duration::Seconds(1)));
  // The cached minimum still names the cancelled record's window end:
  // passing it rescans, finds nothing, and changes nothing.
  EXPECT_EQ(table_.ExpireStale(t0 + Duration::Seconds(10)), 0u);
  EXPECT_EQ(table_.live_count(), 1u);
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_EQ(table_.cancelled(), 1u);
  EXPECT_EQ(table_.expired(), 0u);
  EXPECT_TRUE(table_.Check(long_window, t0 + Duration::Minutes(59)));
  EXPECT_EQ(table_.ExpireStale(t0 + Duration::Hours(1)), 1u);
  EXPECT_EQ(table_.size(), 0u);
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
