#include "core/network_object.h"

#include "objects/core_hierarchy.h"

namespace legion {

NetworkObject::NetworkObject(SimKernel* kernel, Loid loid)
    : LegionObject(kernel, loid, ServiceClassLoid(loid.domain())) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
  mutable_attributes().Set("service", "network-object");
}

void NetworkObject::AddBeacon(std::uint32_t domain, const Loid& beacon) {
  beacons_[domain] = beacon;
}

void NetworkObject::AddCollection(const Loid& collection) {
  collections_.push_back(collection);
}

void NetworkObject::Start(Duration period) {
  if (timer_ != 0) return;
  timer_ = kernel()->SchedulePeriodic(
      period, [this] { ProbeAll([](Result<std::size_t>) {}); });
}

void NetworkObject::Stop() {
  if (timer_ == 0) return;
  kernel()->CancelPeriodic(timer_);
  timer_ = 0;
}

void NetworkObject::ProbeAll(Callback<std::size_t> done) {
  struct ProbeState {
    std::size_t outstanding = 0;
    std::size_t succeeded = 0;
    Callback<std::size_t> done;
    bool launched = false;
  };
  auto state = std::make_shared<ProbeState>();
  state->done = std::move(done);

  SimKernel* kernel = this->kernel();
  const Loid self = loid();
  for (const auto& [da, beacon_a] : beacons_) {
    for (const auto& [db, beacon_b] : beacons_) {
      if (da >= db) continue;
      ++state->outstanding;
      const std::uint32_t domain_a = da, domain_b = db;
      const Loid a = beacon_a, b = beacon_b;
      // Leg 1: self -> a (arms the probe at the source beacon).
      const bool leg1 = kernel->Send(self, a, kSmallMessage, [=, this] {
        // Leg 2: a -> b, timestamped at departure.
        const SimTime departed = kernel->Now();
        const bool leg2 = kernel->Send(a, b, kSmallMessage, [=, this] {
          const Duration latency = kernel->Now() - departed;
          // Leg 3: b -> self with the measurement.
          const bool leg3 = kernel->Send(b, self, kSmallMessage, [=, this] {
            RecordMeasurement(domain_a, domain_b, latency);
            ++state->succeeded;
            if (--state->outstanding == 0) {
              PushMatrix();
              state->done(state->succeeded);
            }
          });
          if (!leg3 && --state->outstanding == 0) {
            PushMatrix();
            state->done(state->succeeded);
          }
        });
        if (!leg2 && --state->outstanding == 0) {
          PushMatrix();
          state->done(state->succeeded);
        }
      });
      if (!leg1 && --state->outstanding == 0) {
        PushMatrix();
        state->done(state->succeeded);
      }
    }
  }
  if (state->outstanding == 0) {
    // Fewer than two beacons: nothing to measure.
    state->done(state->succeeded);
  }
}

void NetworkObject::RecordMeasurement(std::uint32_t a, std::uint32_t b,
                                      Duration latency) {
  measured_[{a, b}] = latency;
  mutable_attributes().Set(
      "net_latency_us_" + std::to_string(a) + "_" + std::to_string(b),
      static_cast<std::int64_t>(latency.micros()));
  mutable_attributes().Set("net_probe_time",
                           static_cast<std::int64_t>(kernel()->Now().micros()));
}

std::optional<Duration> NetworkObject::MeasuredLatency(std::uint32_t a,
                                                       std::uint32_t b) const {
  if (a > b) std::swap(a, b);
  if (a == b) return Duration::Zero();
  auto it = measured_.find({a, b});
  if (it == measured_.end()) return std::nullopt;
  return it->second;
}

void NetworkObject::PushMatrix() {
  const bool join = !joined_;
  joined_ = true;
  for (const Loid& collection : collections_) {
    AttributeDatabase snapshot = attributes();
    CallOn<bool, CollectionSink>(
        kernel(), loid(), collection, kMediumMessage, kSmallMessage,
        kDefaultRpcTimeout,
        [join, member = loid(), snapshot](CollectionSink& sink,
                                          Callback<bool> reply) {
          if (join) {
            sink.JoinCollection(member, snapshot, std::move(reply));
          } else {
            sink.UpdateCollectionEntry(member, snapshot, std::move(reply));
          }
        },
        [](Result<bool>) {});
  }
}

}  // namespace legion
