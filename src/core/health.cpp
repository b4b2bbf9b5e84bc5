#include "core/health.h"

#include <algorithm>

namespace legion {

BreakerState HealthTracker::StateOf(const Breaker& breaker) const {
  if (!breaker.open) return BreakerState::kClosed;
  if (kernel_->Now() < breaker.suspect_until) return BreakerState::kOpen;
  return BreakerState::kHalfOpen;
}

void HealthTracker::Trip(Breaker* breaker, Duration base_cooldown) {
  // Geometric escalation: openings since the last success scale the
  // cooldown (a failed probe re-trips with a longer window), capped so a
  // flapping host is never exiled forever.
  Duration cooldown = base_cooldown;
  for (int i = 0; i < breaker->openings && cooldown < kMaxCooldown; ++i) {
    cooldown = cooldown * kCooldownMultiplier;
  }
  cooldown = std::min(cooldown, kMaxCooldown);
  breaker->open = true;
  ++breaker->openings;
  breaker->suspect_until = kernel_->Now() + cooldown;
  breaker->consecutive_failures = 0;
}

void HealthTracker::RecordSuccess(const Loid& host) {
  if (!options_.enabled) return;
  Breaker& host_breaker = hosts_[host];
  host_breaker = Breaker{};
  Breaker& domain_breaker = domains_[host.domain()];
  domain_breaker = Breaker{};
}

void HealthTracker::RecordFailure(const Loid& host) {
  if (!options_.enabled) return;
  Breaker& host_breaker = hosts_[host];
  // A failure while half-open is a failed probe: re-trip immediately
  // (with escalation) rather than re-counting to the threshold.
  if (StateOf(host_breaker) == BreakerState::kHalfOpen) {
    Trip(&host_breaker, options_.host_cooldown);
  } else if (!host_breaker.open &&
             ++host_breaker.consecutive_failures >=
                 options_.host_failure_threshold) {
    Trip(&host_breaker, options_.host_cooldown);
  }

  Breaker& domain_breaker = domains_[host.domain()];
  if (StateOf(domain_breaker) == BreakerState::kHalfOpen) {
    Trip(&domain_breaker, options_.domain_cooldown);
  } else if (!domain_breaker.open &&
             ++domain_breaker.consecutive_failures >=
                 options_.domain_failure_threshold) {
    Trip(&domain_breaker, options_.domain_cooldown);
  }
}

BreakerState HealthTracker::HostState(const Loid& host) const {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) return BreakerState::kClosed;
  return StateOf(it->second);
}

BreakerState HealthTracker::DomainState(DomainId domain) const {
  auto it = domains_.find(domain);
  if (it == domains_.end()) return BreakerState::kClosed;
  return StateOf(it->second);
}

bool HealthTracker::Healthy(const Loid& host) const {
  return HostState(host) != BreakerState::kOpen &&
         DomainState(host.domain()) != BreakerState::kOpen;
}

std::optional<SimTime> HealthTracker::SuspectUntil(const Loid& host) const {
  std::optional<SimTime> until;
  if (auto it = hosts_.find(host);
      it != hosts_.end() && StateOf(it->second) == BreakerState::kOpen) {
    until = it->second.suspect_until;
  }
  if (auto it = domains_.find(host.domain());
      it != domains_.end() && StateOf(it->second) == BreakerState::kOpen) {
    until = until.has_value() ? std::max(*until, it->second.suspect_until)
                              : it->second.suspect_until;
  }
  return until;
}

bool HealthTracker::IsProbe(const Loid& host) const {
  const BreakerState host_state = HostState(host);
  const BreakerState domain_state = DomainState(host.domain());
  if (host_state == BreakerState::kOpen || domain_state == BreakerState::kOpen) {
    return false;
  }
  return host_state == BreakerState::kHalfOpen ||
         domain_state == BreakerState::kHalfOpen;
}

}  // namespace legion
