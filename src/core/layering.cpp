#include "core/layering.h"

#include "objects/class_object.h"
#include "objects/core_hierarchy.h"

namespace legion {

const char* ToString(Layering layering) {
  switch (layering) {
    case Layering::kApplicationDoesAll:
      return "a:app-does-all";
    case Layering::kApplicationPlusRm:
      return "b:app+rm-services";
    case Layering::kCombinedModule:
      return "c:combined-module";
    case Layering::kSeparateModules:
      return "d:separate-modules";
  }
  return "?";
}

ApplicationCoordinator::ApplicationCoordinator(SimKernel* kernel, Loid loid,
                                               Layering layering,
                                               Wiring wiring,
                                               std::uint64_t seed)
    : LegionObject(kernel, loid, ServiceClassLoid(loid.domain())),
      layering_(layering),
      wiring_(wiring),
      rng_(seed) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
}

void ApplicationCoordinator::Place(const PlacementRequest& request,
                                   Callback<PlacementTrace> done) {
  switch (layering_) {
    case Layering::kApplicationDoesAll:
      PlaceDoesAll(request, std::move(done));
      return;
    case Layering::kApplicationPlusRm:
      PlacePlusRm(request, std::move(done));
      return;
    case Layering::kCombinedModule:
      PlaceCombined(request, std::move(done));
      return;
    case Layering::kSeparateModules:
      PlaceSeparate(request, std::move(done));
      return;
  }
}

void ApplicationCoordinator::QuerySnapshot(Callback<CollectionData> done) {
  CallOn<CollectionData, CollectionObject>(
      kernel(), loid(), wiring_.collection, kSmallMessage, kLargeMessage,
      kDefaultRpcTimeout,
      [](CollectionObject& collection, Callback<CollectionData> reply) {
        collection.QueryCollection("defined($host_arch)", std::move(reply));
      },
      std::move(done));
}

Result<std::vector<ObjectMapping>> ApplicationCoordinator::RandomMappings(
    const PlacementRequest& request, const CollectionData& hosts) {
  if (hosts.empty()) {
    return Status::Error(ErrorCode::kNoResources, "no hosts known");
  }
  std::vector<ObjectMapping> mappings;
  for (const InstanceRequest& instance_request : request) {
    for (std::size_t i = 0; i < instance_request.count; ++i) {
      // Up to |hosts| redraws to find a host with a vault.
      ObjectMapping mapping;
      bool found = false;
      for (std::size_t attempt = 0; attempt < hosts.size() + 3; ++attempt) {
        const CollectionRecord& host = hosts[rng_.Index(hosts.size())];
        const AttrValue* vaults = host.attributes.Get("compatible_vaults");
        if (vaults == nullptr || !vaults->is_list() ||
            vaults->as_list().empty()) {
          continue;
        }
        const AttrList& list = vaults->as_list();
        auto vault = ParseLoid(list[rng_.Index(list.size())].as_string());
        if (!vault.has_value()) continue;
        mapping.class_loid = instance_request.class_loid;
        mapping.host = host.member;
        mapping.vault = *vault;
        found = true;
        break;
      }
      if (!found) {
        return Status::Error(ErrorCode::kNoResources,
                             "no host with a usable vault");
      }
      mappings.push_back(mapping);
    }
  }
  return mappings;
}

// ---- (a): the application negotiates directly with the resources -------------

void ApplicationCoordinator::PlaceDoesAll(const PlacementRequest& request,
                                          Callback<PlacementTrace> done) {
  const SimTime started = kernel()->Now();
  QuerySnapshot([this, request, started, done = std::move(done)](
                    Result<CollectionData> hosts) mutable {
    if (!hosts.ok()) {
      done(PlacementTrace{});
      return;
    }
    auto mappings = RandomMappings(request, *hosts);
    if (!mappings.ok()) {
      done(PlacementTrace{});
      return;
    }
    NegotiateAndInstantiate(std::move(*mappings), started, std::move(done));
  });
}

void ApplicationCoordinator::NegotiateAndInstantiate(
    std::vector<ObjectMapping> mappings, SimTime started,
    Callback<PlacementTrace> done) {
  struct State {
    std::vector<ObjectMapping> mappings;
    std::vector<ReservationToken> tokens;
    std::size_t outstanding = 0;
    bool failed = false;
    SimTime started;
    std::size_t instances = 0;
    Callback<PlacementTrace> done;
  };
  auto state = std::make_shared<State>();
  state->mappings = std::move(mappings);
  state->tokens.resize(state->mappings.size());
  state->outstanding = state->mappings.size();
  state->started = started;
  state->done = std::move(done);

  auto instantiate = [this, state] {
    if (state->failed) {
      // Release the holds the other hosts granted, best effort, as the
      // Enactor does when it abandons a master.
      for (const ReservationToken& token : state->tokens) {
        if (!token.valid()) continue;
        CallOn<bool, HostInterface>(
            kernel(), loid(), token.host, kSmallMessage, kSmallMessage,
            kDefaultRpcTimeout,
            [token](HostInterface& host, Callback<bool> reply) {
              host.CancelReservation(token, std::move(reply));
            },
            [](Result<bool>) { /* best effort */ }, "cancel_reservation");
      }
      PlacementTrace trace;
      trace.success = false;
      trace.latency = kernel()->Now() - state->started;
      state->done(std::move(trace));
      return;
    }
    state->outstanding = state->mappings.size();
    for (std::size_t i = 0; i < state->mappings.size(); ++i) {
      PlacementSuggestion suggestion;
      suggestion.host = state->mappings[i].host;
      suggestion.vault = state->mappings[i].vault;
      suggestion.token = state->tokens[i];
      CallOn<Loid, ClassInterface>(
          kernel(), loid(), state->mappings[i].class_loid, kSmallMessage,
          kSmallMessage, kDefaultRpcTimeout,
          [suggestion](ClassInterface& klass, Callback<Loid> reply) {
            klass.CreateInstance(suggestion, std::move(reply));
          },
          [this, state](Result<Loid> instance) {
            if (instance.ok()) {
              ++state->instances;
            } else {
              state->failed = true;
            }
            if (--state->outstanding == 0) {
              PlacementTrace trace;
              trace.success = !state->failed;
              trace.latency = kernel()->Now() - state->started;
              trace.instances_started = state->instances;
              state->done(std::move(trace));
            }
          });
    }
  };

  // Phase 1: reservations, directly with each host.
  for (std::size_t i = 0; i < state->mappings.size(); ++i) {
    ReservationRequest reservation;
    reservation.vault = state->mappings[i].vault;
    reservation.start = kernel()->Now();
    reservation.duration = Duration::Hours(1);
    reservation.confirm_timeout = Duration::Minutes(5);
    reservation.type = ReservationType::OneShotTimesharing();
    reservation.requester = loid();
    reservation.requester_domain = loid().domain();
    if (auto* klass = dynamic_cast<ClassObject*>(
            kernel()->FindActor(state->mappings[i].class_loid))) {
      reservation.memory_mb = klass->instance_memory_mb();
      reservation.cpu_fraction = klass->instance_cpu_fraction();
    }
    CallOn<ReservationToken, HostInterface>(
        kernel(), loid(), state->mappings[i].host, kSmallMessage,
        kSmallMessage, kDefaultRpcTimeout,
        [reservation](HostInterface& host, Callback<ReservationToken> reply) {
          host.MakeReservation(reservation, std::move(reply));
        },
        [state, i, instantiate](Result<ReservationToken> token) {
          if (token.ok()) {
            state->tokens[i] = *token;
          } else {
            state->failed = true;
          }
          if (--state->outstanding == 0) instantiate();
        });
  }
}

// ---- (b): application placement + Enactor negotiation -------------------------

void ApplicationCoordinator::PlacePlusRm(const PlacementRequest& request,
                                         Callback<PlacementTrace> done) {
  const SimTime started = kernel()->Now();
  QuerySnapshot([this, request, started, done = std::move(done)](
                    Result<CollectionData> hosts) mutable {
    if (!hosts.ok()) {
      done(PlacementTrace{});
      return;
    }
    auto mappings = RandomMappings(request, *hosts);
    if (!mappings.ok()) {
      done(PlacementTrace{});
      return;
    }
    ScheduleRequestList schedule;
    MasterSchedule master;
    master.mappings = std::move(*mappings);
    schedule.masters.push_back(std::move(master));
    CallOn<ScheduleFeedback, EnactorObject>(
        kernel(), loid(), wiring_.enactor, kMediumMessage, kMediumMessage,
        kDefaultRpcTimeout,
        [schedule](EnactorObject& enactor, Callback<ScheduleFeedback> reply) {
          enactor.MakeReservations(schedule, std::move(reply));
        },
        [this, started, done = std::move(done)](
            Result<ScheduleFeedback> feedback) mutable {
          if (!feedback.ok() || !feedback->success) {
            PlacementTrace trace;
            trace.latency = kernel()->Now() - started;
            done(std::move(trace));
            return;
          }
          CallOn<EnactResult, EnactorObject>(
              kernel(), loid(), wiring_.enactor, kMediumMessage,
              kMediumMessage, kDefaultRpcTimeout,
              [fb = *feedback](EnactorObject& enactor,
                               Callback<EnactResult> reply) {
                enactor.EnactSchedule(fb, std::move(reply));
              },
              [this, started, done = std::move(done)](
                  Result<EnactResult> enacted) mutable {
                PlacementTrace trace;
                trace.latency = kernel()->Now() - started;
                if (enacted.ok()) {
                  trace.success = enacted->success;
                  for (const auto& instance : enacted->instances) {
                    if (instance.ok()) ++trace.instances_started;
                  }
                }
                done(std::move(trace));
              });
        });
  });
}

// ---- (c): combined Scheduler + RM-services module -----------------------------

void ApplicationCoordinator::PlaceCombined(const PlacementRequest& request,
                                           Callback<PlacementTrace> done) {
  const SimTime started = kernel()->Now();
  CallOn<PlacementTrace, ApplicationCoordinator>(
      kernel(), loid(), wiring_.combined_service, kMediumMessage,
      kMediumMessage, kDefaultRpcTimeout,
      [request](ApplicationCoordinator& service,
                Callback<PlacementTrace> reply) {
        service.PlaceAsService(request, std::move(reply));
      },
      [this, started, done = std::move(done)](
          Result<PlacementTrace> trace) mutable {
        PlacementTrace result = trace.ok() ? *trace : PlacementTrace{};
        result.latency = kernel()->Now() - started;
        done(std::move(result));
      });
}

void ApplicationCoordinator::PlaceAsService(const PlacementRequest& request,
                                            Callback<PlacementTrace> done) {
  // The combined module runs placement + negotiation co-located.
  PlaceDoesAll(request, std::move(done));
}

// ---- (d): separate Scheduler / Enactor / Collection ----------------------------

void ApplicationCoordinator::PlaceSeparate(const PlacementRequest& request,
                                           Callback<PlacementTrace> done) {
  const SimTime started = kernel()->Now();
  CallOn<RunOutcome, SchedulerObject>(
      kernel(), loid(), wiring_.scheduler, kMediumMessage, kMediumMessage,
      Duration::Minutes(5),
      [request](SchedulerObject& scheduler, Callback<RunOutcome> reply) {
        scheduler.ScheduleAndEnact(request, RunOptions{1, 1},
                                   std::move(reply));
      },
      [this, started, done = std::move(done)](
          Result<RunOutcome> outcome) mutable {
        PlacementTrace trace;
        trace.latency = kernel()->Now() - started;
        if (outcome.ok()) {
          trace.success = outcome->success;
          for (const auto& instance : outcome->enacted.instances) {
            if (instance.ok()) ++trace.instances_started;
          }
        }
        done(std::move(trace));
      });
}

}  // namespace legion
