// Domain and host health tracking: a circuit breaker over RPC outcomes.
//
// The paper's robustness claim -- "our Legion objects are built to
// accommodate failure at any step in the scheduling process" (§3.1) --
// needs more than per-call timeouts once failures repeat: a host behind a
// partition, or a crashed machine whose Collection record lingers, will
// otherwise be renegotiated with on every placement, each attempt costing
// a full RPC timeout.  The HealthTracker records reservation outcomes per
// host and per administrative domain and exposes the classic breaker
// state machine:
//
//   kClosed    normal operation; consecutive failures are counted.
//   kOpen      the failure threshold tripped; the target is suspect until
//              a cooldown expires.  Schedulers demote or skip suspect
//              hosts in their candidate pools; the Enactor fails fast to
//              the next variant instead of paying another timeout.
//   kHalfOpen  the cooldown expired; the next reservation is a probe.
//              Success closes the breaker, failure re-opens it with a
//              geometrically escalated cooldown (capped).
//
// A domain breaker aggregates the failures of its hosts, so a severed
// domain is quarantined as a whole after a few timeouts instead of
// host-by-host.  The tracker is pure bookkeeping on the simulated clock:
// callers (the Enactor) decide which error codes are health-relevant and
// report them; the tracker never issues RPCs itself.
#pragma once

#include <optional>
#include <unordered_map>

#include "base/loid.h"
#include "base/sim_time.h"
#include "sim/kernel.h"

namespace legion {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct HealthOptions {
  // Whether breakers are on.  A disabled tracker records nothing, so
  // every host stays healthy and no reservation counts as a probe.
  bool enabled = true;
  // Consecutive health-relevant failures before a breaker opens.
  int host_failure_threshold = 3;
  int domain_failure_threshold = 12;
  // Suspect window after the first opening.
  Duration host_cooldown = Duration::Seconds(60);
  Duration domain_cooldown = Duration::Seconds(120);
};

class HealthTracker {
 public:
  // Each re-opening (a failed probe) escalates the cooldown by this
  // factor, capped at kMaxCooldown.
  static constexpr double kCooldownMultiplier = 2.0;
  static constexpr Duration kMaxCooldown = Duration::Minutes(15);

  // Starts with default options; tune them through options().
  explicit HealthTracker(SimKernel* kernel) : kernel_(kernel) {}

  // Reservation outcome reporting.  Callers report only failures that
  // indicate an unreachable or dead target (timeouts, vanished objects);
  // policy refusals and capacity shortfalls are not health signals.
  void RecordSuccess(const Loid& host);
  void RecordFailure(const Loid& host);

  // True unless the host's breaker or its domain's breaker is open.
  // Half-open targets count as healthy: after the cooldown they should
  // re-enter candidate pools so a probe can close the breaker.
  bool Healthy(const Loid& host) const;

  // When either applicable breaker is open: the later of the two
  // cooldown expiries.  nullopt when the target is not suspect.
  std::optional<SimTime> SuspectUntil(const Loid& host) const;

  // Individual breaker states (the host's own, and its domain's).
  BreakerState HostState(const Loid& host) const;
  BreakerState DomainState(DomainId domain) const;

  // True when a reservation to `host` would be a probe: some applicable
  // breaker is half-open and none is open.
  bool IsProbe(const Loid& host) const;

  HealthOptions& options() { return options_; }
  const HealthOptions& options() const { return options_; }

 private:
  struct Breaker {
    int consecutive_failures = 0;
    int openings = 0;  // re-openings since the last success (escalation)
    bool open = false;
    SimTime suspect_until = SimTime::Zero();
  };

  BreakerState StateOf(const Breaker& breaker) const;
  void Trip(Breaker* breaker, Duration base_cooldown);

  SimKernel* kernel_;
  HealthOptions options_;
  std::unordered_map<Loid, Breaker> hosts_;
  std::unordered_map<DomainId, Breaker> domains_;
};

}  // namespace legion
