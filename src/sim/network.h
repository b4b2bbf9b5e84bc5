// The simulated wide-area network.
//
// The paper's metacomputer "combines hosts from multiple administrative
// domains via transnational and world-wide networks".  This model captures
// the features that matter to resource management:
//
//   * a two-level latency hierarchy: cheap intra-domain links, expensive
//     inter-domain links (optionally overridden per domain pair),
//   * bandwidth-limited transfer time for large payloads (OPR migration),
//   * deterministic jitter,
//   * fault injection: random message loss and timed domain partitions.
//
// Endpoints are Legion LOIDs registered with their administrative domain.
// A message between two endpoints either gets a delivery latency or is
// dropped (loss/partition); the caller's RPC timeout machinery turns drops
// into kTimeout errors, exactly the failure mode the paper says Legion
// objects are built to accommodate "at any step in the scheduling process".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/loid.h"
#include "base/rng.h"
#include "base/sim_time.h"

namespace legion {

using DomainId = std::uint32_t;

// Tunable network characteristics.  Defaults approximate a late-90s
// research internet: sub-millisecond LANs, tens-of-milliseconds WANs.
struct NetworkParams {
  Duration intra_domain_latency = Duration::Micros(300);
  Duration inter_domain_latency = Duration::Millis(30);
  double intra_domain_bandwidth_bps = 100e6;  // 100 Mbit/s LAN
  double inter_domain_bandwidth_bps = 10e6;   // 10 Mbit/s WAN
  double jitter_fraction = 0.1;               // +/- uniform share of latency
  double intra_domain_loss = 0.0;             // message loss probability
  double inter_domain_loss = 0.0;
  std::uint64_t seed = 12345;
  // Sender-side link contention (GridSim-style): messages leaving one
  // endpoint share its uplink, so a burst of concurrent sends queues
  // behind each other's transfer time instead of departing in parallel
  // for free.  Off by default -- the historical model delivers
  // concurrent sends independently.
  bool serialize_uplink = false;
};

class NetworkModel {
 public:
  explicit NetworkModel(NetworkParams params = {});

  // Associates an endpoint LOID with its administrative domain.
  void RegisterEndpoint(const Loid& loid, DomainId domain);
  std::optional<DomainId> DomainOf(const Loid& loid) const;

  // Declares domains a and b mutually unreachable during [start, end).
  void AddPartition(DomainId a, DomainId b, SimTime start, SimTime end);

  // Computes the delivery latency for `bytes` from `from` to `to` at time
  // `now`, or nullopt if the message is lost (loss or partition).  A
  // message between unregistered endpoints, or an endpoint to itself, is
  // treated as local and free (and not counted as wire traffic).
  std::optional<Duration> Latency(const Loid& from, const Loid& to,
                                  std::size_t bytes, SimTime now);

  // Healthy-path estimate: base latency plus transfer time, with no
  // jitter, loss draw, partition, uplink queueing or counters.  For
  // long-horizon analytics (the workload executor's makespan model),
  // where any partition active right now will have healed.
  Duration HealthyPathLatency(const Loid& from, const Loid& to,
                              std::size_t bytes) const;

  const NetworkParams& params() const { return params_; }

  // Counters (for experiment output).
  std::uint64_t messages_offered() const { return offered_; }
  std::uint64_t messages_lost() const { return lost_; }
  std::uint64_t messages_partitioned() const { return partitioned_; }

 private:
  struct Partition {
    DomainId a, b;
    SimTime start, end;
  };
  bool Partitioned(DomainId a, DomainId b, SimTime now) const;
  // The base latency between two domains and the time `bytes` take over
  // their link.
  struct PathCost {
    Duration base;
    Duration transfer;
  };
  PathCost Path(DomainId a, DomainId b, std::size_t bytes) const;

  NetworkParams params_;
  Rng rng_;
  std::unordered_map<Loid, DomainId> endpoints_;
  std::vector<Partition> partitions_;
  // Per-sender uplink FIFO (serialize_uplink): when this endpoint's
  // previous transfers finish draining onto the wire.
  std::unordered_map<Loid, SimTime> uplink_free_;
  std::uint64_t offered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t partitioned_ = 0;
};

}  // namespace legion
