// HealthTracker: the circuit breaker over reservation outcomes
// (DESIGN.md §9).  State machine coverage on a bare kernel clock.
#include "core/health.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

class HealthTest : public ::testing::Test {
 protected:
  HealthTest() : kernel_(NetworkParams{}), tracker_(&kernel_) {}

  static Loid Host(std::uint32_t domain, std::uint64_t serial) {
    return Loid(LoidSpace::kHost, domain, serial);
  }

  SimKernel kernel_;
  HealthTracker tracker_;
};

TEST_F(HealthTest, UnknownHostIsHealthyAndClosed) {
  const Loid host = Host(0, 1);
  EXPECT_TRUE(tracker_.Healthy(host));
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kClosed);
  EXPECT_EQ(tracker_.DomainState(0), BreakerState::kClosed);
  EXPECT_FALSE(tracker_.SuspectUntil(host).has_value());
  EXPECT_FALSE(tracker_.IsProbe(host));
}

TEST_F(HealthTest, BreakerOpensAtConsecutiveFailureThreshold) {
  const Loid host = Host(0, 1);
  const int threshold = tracker_.options().host_failure_threshold;
  for (int i = 0; i < threshold - 1; ++i) {
    tracker_.RecordFailure(host);
    EXPECT_TRUE(tracker_.Healthy(host)) << "opened early at failure " << i;
  }
  tracker_.RecordFailure(host);
  EXPECT_FALSE(tracker_.Healthy(host));
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kOpen);
  ASSERT_TRUE(tracker_.SuspectUntil(host).has_value());
  EXPECT_EQ(*tracker_.SuspectUntil(host),
            kernel_.Now() + tracker_.options().host_cooldown);
}

TEST_F(HealthTest, SuccessResetsTheFailureCount) {
  const Loid host = Host(0, 1);
  const int threshold = tracker_.options().host_failure_threshold;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < threshold - 1; ++i) tracker_.RecordFailure(host);
    tracker_.RecordSuccess(host);
  }
  EXPECT_TRUE(tracker_.Healthy(host));
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kClosed);
}

TEST_F(HealthTest, HalfOpenAfterCooldownCountsAsHealthyProbe) {
  const Loid host = Host(0, 1);
  for (int i = 0; i < tracker_.options().host_failure_threshold; ++i) {
    tracker_.RecordFailure(host);
  }
  ASSERT_EQ(tracker_.HostState(host), BreakerState::kOpen);
  kernel_.RunFor(tracker_.options().host_cooldown + Duration::Seconds(1));
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kHalfOpen);
  EXPECT_TRUE(tracker_.Healthy(host));
  EXPECT_TRUE(tracker_.IsProbe(host));
  EXPECT_FALSE(tracker_.SuspectUntil(host).has_value());
}

TEST_F(HealthTest, FailedProbeReopensWithEscalatedCooldown) {
  const Loid host = Host(0, 1);
  for (int i = 0; i < tracker_.options().host_failure_threshold; ++i) {
    tracker_.RecordFailure(host);
  }
  kernel_.RunFor(tracker_.options().host_cooldown + Duration::Seconds(1));
  ASSERT_EQ(tracker_.HostState(host), BreakerState::kHalfOpen);
  // One failure re-trips immediately (no re-count to the threshold),
  // with the cooldown scaled by the multiplier.
  tracker_.RecordFailure(host);
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kOpen);
  ASSERT_TRUE(tracker_.SuspectUntil(host).has_value());
  EXPECT_EQ(*tracker_.SuspectUntil(host),
            kernel_.Now() + tracker_.options().host_cooldown *
                                HealthTracker::kCooldownMultiplier);
}

TEST_F(HealthTest, EscalationIsCappedAtMaxCooldown) {
  const Loid host = Host(0, 1);
  // Seven openings: uncapped, the 60 s host cooldown would double to
  // 64 min; every window here expires within the 20 min between rounds.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < tracker_.options().host_failure_threshold; ++i) {
      tracker_.RecordFailure(host);
    }
    kernel_.RunFor(Duration::Minutes(20));
  }
  for (int i = 0; i < tracker_.options().host_failure_threshold; ++i) {
    tracker_.RecordFailure(host);
  }
  ASSERT_TRUE(tracker_.SuspectUntil(host).has_value());
  EXPECT_EQ(*tracker_.SuspectUntil(host),
            kernel_.Now() + HealthTracker::kMaxCooldown);
}

TEST_F(HealthTest, SuccessfulProbeClosesTheBreaker) {
  const Loid host = Host(0, 1);
  for (int i = 0; i < tracker_.options().host_failure_threshold; ++i) {
    tracker_.RecordFailure(host);
  }
  kernel_.RunFor(tracker_.options().host_cooldown + Duration::Seconds(1));
  tracker_.RecordSuccess(host);
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kClosed);
  EXPECT_TRUE(tracker_.Healthy(host));
  EXPECT_FALSE(tracker_.IsProbe(host));
}

TEST_F(HealthTest, DomainBreakerAggregatesAcrossHosts) {
  tracker_.options().host_failure_threshold = 10;  // keep hosts closed
  tracker_.options().domain_failure_threshold = 4;
  for (std::uint64_t serial = 1; serial <= 4; ++serial) {
    tracker_.RecordFailure(Host(1, serial));
  }
  // No individual host tripped, but the domain did: every domain-1 host
  // is now suspect, including one never seen before.
  EXPECT_EQ(tracker_.HostState(Host(1, 1)), BreakerState::kClosed);
  EXPECT_EQ(tracker_.DomainState(1), BreakerState::kOpen);
  EXPECT_FALSE(tracker_.Healthy(Host(1, 99)));
  ASSERT_TRUE(tracker_.SuspectUntil(Host(1, 99)).has_value());
  // Other domains are unaffected.
  EXPECT_TRUE(tracker_.Healthy(Host(2, 1)));
}

TEST_F(HealthTest, SuccessInDomainResetsTheDomainCount) {
  tracker_.options().host_failure_threshold = 10;
  tracker_.options().domain_failure_threshold = 4;
  for (std::uint64_t serial = 1; serial <= 3; ++serial) {
    tracker_.RecordFailure(Host(1, serial));
  }
  tracker_.RecordSuccess(Host(1, 4));  // one good answer from the domain
  tracker_.RecordFailure(Host(1, 5));
  EXPECT_EQ(tracker_.DomainState(1), BreakerState::kClosed);
}

TEST_F(HealthTest, DisabledTrackerKeepsEveryBreakerClosed) {
  tracker_.options().enabled = false;
  const Loid host = Host(1, 1);
  // Enough failures to trip the host breaker and the domain breaker
  // several times over.
  for (int i = 0; i < 4 * tracker_.options().domain_failure_threshold; ++i) {
    tracker_.RecordFailure(host);
  }
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kClosed);
  EXPECT_EQ(tracker_.DomainState(1), BreakerState::kClosed);
  EXPECT_TRUE(tracker_.Healthy(host));
  EXPECT_FALSE(tracker_.SuspectUntil(host).has_value());
  // Past any cooldown nothing is half-open either: no probe.
  kernel_.RunFor(HealthTracker::kMaxCooldown + Duration::Seconds(1));
  EXPECT_EQ(tracker_.HostState(host), BreakerState::kClosed);
  EXPECT_TRUE(tracker_.Healthy(host));
  EXPECT_FALSE(tracker_.IsProbe(host));
}

}  // namespace
}  // namespace legion
