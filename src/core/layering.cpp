#include "core/layering.h"

#include <algorithm>

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
        const std::vector<Loid> vaults = CompatibleVaultsOf(host);
        if (vaults.empty()) continue;
        mapping.class_loid = instance_request.class_loid;
        mapping.host = host.member;
        mapping.vault = vaults[rng_.Index(vaults.size())];
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
  if (mappings.empty()) {
    // No reservation would go out, so no reply would ever answer: fail at
    // once, as mode (b) does when the Enactor rejects the empty master.
    PlacementTrace trace;
    trace.latency = kernel()->Now() - started;
    done(std::move(trace));
    return;
  }
  struct State {
    std::vector<ObjectMapping> mappings;
    std::vector<ReservationToken> tokens;
    std::size_t outstanding = 0;
    bool failed = false;
    SimTime started;
    Callback<PlacementTrace> done;
  };
  auto state = std::make_shared<State>();
  state->mappings = std::move(mappings);
  state->tokens.resize(state->mappings.size());
  state->outstanding = state->mappings.size();
  state->started = started;
  state->done = std::move(done);

  // Releases every hold a host granted, best effort, as the Enactor does
  // when it abandons a master.  A hold its instance consumed is already
  // gone, and its cancel releases nothing.
  auto release = [this, state] {
    for (const ReservationToken& token : state->tokens) {
      if (!token.valid()) continue;
      CancelToken(kernel(), loid(), token, kDefaultRpcTimeout,
                  [](Result<bool>) { /* best effort */ });
    }
  };
  auto instantiate = [this, state, release] {
    if (state->failed) {
      release();
      PlacementTrace trace;
      trace.latency = kernel()->Now() - state->started;
      state->done(std::move(trace));
      return;
    }
    CreateInstances(
        kernel(), loid(), state->mappings, state->tokens, kDefaultRpcTimeout,
        [this, state, release](std::vector<Result<Loid>> instances) {
          PlacementTrace trace;
          trace.latency = kernel()->Now() - state->started;
          trace.instances_started = static_cast<std::size_t>(
              std::count_if(instances.begin(), instances.end(),
                            [](const Result<Loid>& r) { return r.ok(); }));
          trace.success = trace.instances_started == instances.size();
          // All or nothing: the started instances were killed, and the
          // holds of those that never started are released.
          if (!trace.success) release();
          state->done(std::move(trace));
        });
  };

  // Phase 1: reservations, directly with each host through Table 1's
  // single make_reservation, requested exactly as a default Enactor
  // would request them.
  const Duration confirm_timeout = EnactorOptions().confirm_timeout;
  for (std::size_t i = 0; i < state->mappings.size(); ++i) {
    const ReservationRequest reservation = ReservationRequestFor(
        kernel(), loid(), state->mappings[i], confirm_timeout);
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
              [this, started, fb = *feedback, done = std::move(done)](
                  Result<EnactResult> enacted) mutable {
                PlacementTrace trace;
                trace.latency = kernel()->Now() - started;
                if (enacted.ok()) {
                  trace.success = enacted->success;
                  for (const auto& instance : enacted->instances) {
                    if (instance.ok()) ++trace.instances_started;
                  }
                }
                if (!trace.success) {
                  // Release what the failed enactment still holds, as
                  // figure 9's loop does.
                  CallOn<std::size_t, EnactorObject>(
                      kernel(), loid(), wiring_.enactor, kMediumMessage,
                      kSmallMessage, kDefaultRpcTimeout,
                      [fb](EnactorObject& enactor,
                           Callback<std::size_t> reply) {
                        enactor.CancelReservations(fb, std::move(reply));
                      },
                      [](Result<std::size_t>) { /* best effort */ });
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
