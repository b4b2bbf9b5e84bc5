#include "sim/network.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

Loid Endpoint(std::uint64_t serial) {
  return Loid(LoidSpace::kHost, 0, serial);
}

NetworkParams QuietParams() {
  NetworkParams params;
  params.jitter_fraction = 0.0;
  params.intra_domain_latency = Duration::Micros(300);
  params.inter_domain_latency = Duration::Millis(30);
  return params;
}

TEST(NetworkTest, EndpointRegistration) {
  NetworkModel net(QuietParams());
  EXPECT_FALSE(net.DomainOf(Endpoint(1)).has_value());
  net.RegisterEndpoint(Endpoint(1), 3);
  EXPECT_EQ(net.DomainOf(Endpoint(1)), 3u);
}

TEST(NetworkTest, UnregisteredEndpointsAreLocal) {
  NetworkModel net(QuietParams());
  auto latency = net.Latency(Endpoint(1), Endpoint(2), 100, SimTime::Zero());
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, Duration::Zero());
}

TEST(NetworkTest, SelfSendIsFree) {
  NetworkModel net(QuietParams());
  net.RegisterEndpoint(Endpoint(1), 0);
  auto latency = net.Latency(Endpoint(1), Endpoint(1), 100, SimTime::Zero());
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, Duration::Zero());
}

TEST(NetworkTest, IntraVsInterDomainLatency) {
  NetworkModel net(QuietParams());
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 0);
  net.RegisterEndpoint(Endpoint(3), 1);
  auto intra = net.Latency(Endpoint(1), Endpoint(2), 0, SimTime::Zero());
  auto inter = net.Latency(Endpoint(1), Endpoint(3), 0, SimTime::Zero());
  ASSERT_TRUE(intra.has_value());
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(*intra, Duration::Micros(300));
  EXPECT_EQ(*inter, Duration::Millis(30));
}

TEST(NetworkTest, BandwidthScalesWithPayload) {
  NetworkParams params = QuietParams();
  params.intra_domain_bandwidth_bps = 8e6;  // 1 MB/s
  NetworkModel net(params);
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 0);
  auto small = net.Latency(Endpoint(1), Endpoint(2), 0, SimTime::Zero());
  auto big = net.Latency(Endpoint(1), Endpoint(2), 1 << 20, SimTime::Zero());
  ASSERT_TRUE(small && big);
  // 1 MiB at 1 MB/s is about a second more than the empty message.
  EXPECT_NEAR((*big - *small).seconds(), 1.05, 0.05);
}

TEST(NetworkTest, LossDropsMessages) {
  NetworkParams params = QuietParams();
  params.inter_domain_loss = 1.0;
  NetworkModel net(params);
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 1);
  EXPECT_FALSE(
      net.Latency(Endpoint(1), Endpoint(2), 0, SimTime::Zero()).has_value());
  EXPECT_EQ(net.messages_lost(), 1u);
  // Intra-domain traffic is unaffected.
  net.RegisterEndpoint(Endpoint(3), 0);
  EXPECT_TRUE(
      net.Latency(Endpoint(1), Endpoint(3), 0, SimTime::Zero()).has_value());
}

TEST(NetworkTest, PartitionWindows) {
  NetworkModel net(QuietParams());
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 1);
  net.AddPartition(0, 1, SimTime(1000), SimTime(2000));
  EXPECT_TRUE(net.Latency(Endpoint(1), Endpoint(2), 0, SimTime(999)).has_value());
  EXPECT_FALSE(net.Latency(Endpoint(1), Endpoint(2), 0, SimTime(1000)).has_value());
  EXPECT_FALSE(net.Latency(Endpoint(2), Endpoint(1), 0, SimTime(1500)).has_value());
  EXPECT_TRUE(net.Latency(Endpoint(1), Endpoint(2), 0, SimTime(2000)).has_value());
  EXPECT_EQ(net.messages_partitioned(), 2u);
}

TEST(NetworkTest, JitterStaysWithinFraction) {
  NetworkParams params = QuietParams();
  params.jitter_fraction = 0.1;
  NetworkModel net(params);
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 1);
  for (int i = 0; i < 200; ++i) {
    auto latency = net.Latency(Endpoint(1), Endpoint(2), 0, SimTime::Zero());
    ASSERT_TRUE(latency.has_value());
    EXPECT_GE(latency->micros(), 27000);
    EXPECT_LE(latency->micros(), 33000);
  }
}

// The executor's makespan model asks for the healthy path: a partition
// that is active now must not change the estimate, and asking is not
// traffic (no counters, no loss draw).
TEST(NetworkTest, HealthyPathLatencyIgnoresPartitions) {
  NetworkModel net(QuietParams());
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 1);
  net.AddPartition(0, 1, SimTime::Zero(), SimTime(2000));
  EXPECT_EQ(net.HealthyPathLatency(Endpoint(1), Endpoint(2), 0),
            Duration::Millis(30));
  EXPECT_EQ(net.HealthyPathLatency(Endpoint(2), Endpoint(1), 0),
            Duration::Millis(30));
  // 12,500 bytes over the 10 Mbit/s WAN add 10 ms of transfer.
  EXPECT_EQ(net.HealthyPathLatency(Endpoint(1), Endpoint(2), 12500),
            Duration::Millis(40));
  EXPECT_EQ(net.messages_offered(), 0u);
  EXPECT_EQ(net.messages_partitioned(), 0u);
  // A send inside the window is dropped all the same.
  EXPECT_FALSE(
      net.Latency(Endpoint(1), Endpoint(2), 0, SimTime(1000)).has_value());
  EXPECT_EQ(net.messages_partitioned(), 1u);
}

TEST(NetworkTest, OfferedCounterCounts) {
  NetworkModel net(QuietParams());
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 0);
  for (int i = 0; i < 5; ++i) {
    net.Latency(Endpoint(1), Endpoint(2), 0, SimTime::Zero());
  }
  EXPECT_EQ(net.messages_offered(), 5u);
}

// Regression: offered_ used to increment before the local/self-send
// early-out, so loss rate (lost/offered) was diluted by traffic that
// never touched the wire.
TEST(NetworkTest, LocalTrafficIsNotOffered) {
  NetworkModel net(QuietParams());
  net.RegisterEndpoint(Endpoint(1), 0);
  // Unregistered peer: local, free, not wire traffic.
  net.Latency(Endpoint(1), Endpoint(99), 100, SimTime::Zero());
  net.Latency(Endpoint(98), Endpoint(1), 100, SimTime::Zero());
  // Self-send: also local.
  net.Latency(Endpoint(1), Endpoint(1), 100, SimTime::Zero());
  EXPECT_EQ(net.messages_offered(), 0u);
  // A real wire message still counts.
  net.RegisterEndpoint(Endpoint(2), 1);
  net.Latency(Endpoint(1), Endpoint(2), 100, SimTime::Zero());
  EXPECT_EQ(net.messages_offered(), 1u);
}

TEST(NetworkTest, UplinkSerializationQueuesSameSenderBursts) {
  NetworkParams params = QuietParams();
  params.serialize_uplink = true;
  params.intra_domain_bandwidth_bps = 8e6;  // 1 MB/s
  NetworkModel net(params);
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 0);
  net.RegisterEndpoint(Endpoint(3), 0);
  const std::size_t megabyte = 1 << 20;
  // Two messages leave Endpoint(1) at t=0: the second queues behind the
  // first's ~1s transfer.
  auto first = net.Latency(Endpoint(1), Endpoint(2), megabyte, SimTime::Zero());
  auto second =
      net.Latency(Endpoint(1), Endpoint(2), megabyte, SimTime::Zero());
  ASSERT_TRUE(first && second);
  EXPECT_NEAR((*second - *first).seconds(), 1.05, 0.05);
  // A different sender's uplink is idle: no queueing.
  auto other = net.Latency(Endpoint(3), Endpoint(2), megabyte, SimTime::Zero());
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(*other, *first);
  // After the uplink drains, a later send from Endpoint(1) pays no queue
  // delay either.
  auto later = net.Latency(Endpoint(1), Endpoint(2), megabyte,
                           SimTime::Zero() + Duration::Seconds(10));
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(*later, *first);
}

TEST(NetworkTest, UplinkSerializationOffByDefault) {
  NetworkParams params = QuietParams();
  params.intra_domain_bandwidth_bps = 8e6;
  NetworkModel net(params);
  net.RegisterEndpoint(Endpoint(1), 0);
  net.RegisterEndpoint(Endpoint(2), 0);
  const std::size_t megabyte = 1 << 20;
  auto first = net.Latency(Endpoint(1), Endpoint(2), megabyte, SimTime::Zero());
  auto second =
      net.Latency(Endpoint(1), Endpoint(2), megabyte, SimTime::Zero());
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, *second);
}

}  // namespace
}  // namespace legion
