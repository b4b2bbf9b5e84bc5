#include "sim/network.h"

#include <algorithm>

namespace legion {

NetworkModel::NetworkModel(NetworkParams params)
    : params_(params), rng_(params.seed) {}

void NetworkModel::RegisterEndpoint(const Loid& loid, DomainId domain) {
  endpoints_[loid] = domain;
}

std::optional<DomainId> NetworkModel::DomainOf(const Loid& loid) const {
  auto it = endpoints_.find(loid);
  if (it == endpoints_.end()) return std::nullopt;
  return it->second;
}

NetworkModel::PathCost NetworkModel::Path(DomainId a, DomainId b,
                                          std::size_t bytes) const {
  const bool cross = a != b;
  PathCost path;
  path.base =
      cross ? params_.inter_domain_latency : params_.intra_domain_latency;
  const double bandwidth = cross ? params_.inter_domain_bandwidth_bps
                                 : params_.intra_domain_bandwidth_bps;
  path.transfer = Duration::Seconds(static_cast<double>(bytes) * 8.0 /
                                    std::max(bandwidth, 1.0));
  return path;
}

Duration NetworkModel::HealthyPathLatency(const Loid& from, const Loid& to,
                                          std::size_t bytes) const {
  auto from_it = endpoints_.find(from);
  auto to_it = endpoints_.find(to);
  if (from_it == endpoints_.end() || to_it == endpoints_.end() ||
      from == to) {
    return Duration::Zero();
  }
  const PathCost path = Path(from_it->second, to_it->second, bytes);
  return path.base + path.transfer;
}

void NetworkModel::AddPartition(DomainId a, DomainId b, SimTime start,
                                SimTime end) {
  partitions_.push_back(Partition{a, b, start, end});
}

bool NetworkModel::Partitioned(DomainId a, DomainId b, SimTime now) const {
  for (const auto& p : partitions_) {
    bool matches = (p.a == a && p.b == b) || (p.a == b && p.b == a);
    if (matches && now >= p.start && now < p.end) return true;
  }
  return false;
}

std::optional<Duration> NetworkModel::Latency(const Loid& from, const Loid& to,
                                              std::size_t bytes, SimTime now) {
  auto from_it = endpoints_.find(from);
  auto to_it = endpoints_.find(to);
  // Unregistered endpoints (unit tests, co-located services) and
  // self-sends are local: free and lossless.  They never touch the wire,
  // so they do not count as offered traffic -- counting them would
  // dilute the loss-rate denominator (messages_lost/messages_offered).
  if (from_it == endpoints_.end() || to_it == endpoints_.end() ||
      from == to) {
    return Duration::Zero();
  }
  ++offered_;
  DomainId da = from_it->second;
  DomainId db = to_it->second;
  bool cross = da != db;

  if (cross && Partitioned(da, db, now)) {
    ++partitioned_;
    return std::nullopt;
  }
  double loss =
      cross ? params_.inter_domain_loss : params_.intra_domain_loss;
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    ++lost_;
    return std::nullopt;
  }

  const PathCost path = Path(da, db, bytes);
  Duration jitter = Duration::Zero();
  if (params_.jitter_fraction > 0.0) {
    jitter = path.base * rng_.Uniform(-params_.jitter_fraction,
                                      params_.jitter_fraction);
  }
  Duration queue_delay = Duration::Zero();
  if (params_.serialize_uplink) {
    // The sender's uplink is a FIFO: this message starts draining when
    // the previous ones finish, and occupies the link for its transfer
    // time.  Concurrent bursts from one endpoint therefore pay for each
    // other -- the cost batching exists to amortize.
    SimTime& uplink_free = uplink_free_[from];
    const SimTime depart = std::max(uplink_free, now);
    queue_delay = depart - now;
    uplink_free = depart + path.transfer;
  }
  Duration total = queue_delay + path.transfer + path.base + jitter;
  if (total < Duration::Zero()) total = Duration::Zero();
  return total;
}

}  // namespace legion
