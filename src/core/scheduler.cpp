#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "objects/core_hierarchy.h"

namespace legion {

SchedulerObject::SchedulerObject(SimKernel* kernel, Loid loid,
                                 std::string name, Loid collection,
                                 Loid enactor)
    : LegionObject(kernel, loid, ServiceClassLoid(loid.domain())),
      name_(std::move(name)),
      collection_(collection),
      enactor_(enactor) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
  mutable_attributes().Set("service", "scheduler");
  mutable_attributes().Set("scheduler_name", name_);

  const obs::Labels labels = {{"component", "scheduler"},
                              {"scheduler", name_}};
  runs_cell_ = kernel->metrics().GetCounter("scheduler_runs", labels);
  successes_cell_ = kernel->metrics().GetCounter("scheduler_successes", labels);
  lookups_cell_ = kernel->metrics().GetCounter("collection_lookups", labels);
  suspects_skipped_cell_ =
      kernel->metrics().GetCounter("suspects_skipped", labels);
  mappings_unplaced_cell_ =
      kernel->metrics().GetCounter("mappings_unplaced", labels);
}

const HealthTracker* SchedulerObject::health() const {
  auto* enactor = dynamic_cast<EnactorObject*>(kernel()->FindActor(enactor_));
  return enactor == nullptr ? nullptr : &enactor->health();
}

void SchedulerObject::AuditDecision(const char* kind, obs::TraceArgs fields) {
  fields.insert(fields.begin(), {"scheduler", name_});
  kernel()->audit().Record(kernel()->Now(), kind, std::move(fields));
}

void SchedulerObject::FilterSuspects(CollectionData* hosts,
                                     std::size_t min_keep) {
  const HealthTracker* tracker = health();
  if (tracker == nullptr || hosts->empty()) return;
  std::size_t healthy = 0;
  for (const CollectionRecord& record : *hosts) {
    if (tracker->Healthy(record.member)) ++healthy;
  }
  // Nothing suspect, or too few healthy candidates to satisfy the
  // policy: keep the pool intact (the Enactor's breaker will still fail
  // suspects fast, and half-open targets need traffic to recover).
  if (healthy == hosts->size() || healthy < min_keep) return;
  const std::size_t skipped = hosts->size() - healthy;
  if (AuditOn()) {
    for (const CollectionRecord& record : *hosts) {
      if (!tracker->Healthy(record.member)) {
        AuditDecision("sched_suspect_skip",
                      {{"host", record.member.ToString()},
                       {"reason", "breaker_open"}});
      }
    }
    AuditDecision("sched_filter",
                  {{"pool", std::to_string(hosts->size())},
                   {"healthy", std::to_string(healthy)},
                   {"skipped", std::to_string(skipped)}});
  }
  hosts->erase(std::remove_if(hosts->begin(), hosts->end(),
                              [tracker](const CollectionRecord& record) {
                                return !tracker->Healthy(record.member);
                              }),
               hosts->end());
  suspects_skipped_cell_->Add(skipped);
}

void SchedulerObject::QueryHosts(const std::string& query,
                                 const QueryOptions& options,
                                 Callback<CollectionData> done) {
  lookups_cell_->Add();
  if (AuditOn()) {
    // Record the candidate count when the reply lands, so the report
    // shows what pool the policy actually worked from.
    done = [this, query, done = std::move(done)](Result<CollectionData> r) {
      AuditDecision("sched_query",
                    {{"query", query},
                     {"candidates",
                      r.ok() ? std::to_string(r->size()) : "error"}});
      done(std::move(r));
    };
  }
  CallOn<CollectionData, CollectionObject>(
      kernel(), loid(), collection_, kSmallMessage, kLargeMessage,
      kDefaultRpcTimeout,
      [query, options](CollectionObject& collection,
                       Callback<CollectionData> reply) {
        collection.QueryCollection(query, options, std::move(reply));
      },
      std::move(done), "query_collection");
}

void SchedulerObject::GetImplementations(
    const Loid& class_loid, Callback<std::vector<Implementation>> done) {
  CallOn<std::vector<Implementation>, ClassInterface>(
      kernel(), loid(), class_loid, kSmallMessage, kSmallMessage,
      kDefaultRpcTimeout,
      [](ClassInterface& klass, Callback<std::vector<Implementation>> reply) {
        klass.GetImplementations(std::move(reply));
      },
      std::move(done), "get_implementations");
}

std::string SchedulerObject::HostMatchQuery(
    const std::vector<Implementation>& implementations) {
  if (implementations.empty()) return "true";
  std::ostringstream os;
  for (std::size_t i = 0; i < implementations.size(); ++i) {
    if (i != 0) os << " or ";
    os << "($host_arch == \"" << implementations[i].arch
       << "\" and $host_os_name == \"" << implementations[i].os_name << "\")";
  }
  return os.str();
}

std::vector<Loid> CompatibleVaultsOf(const CollectionRecord& record) {
  std::vector<Loid> vaults;
  const AttrValue* list = record.attributes.Get("compatible_vaults");
  if (list == nullptr || !list->is_list()) return vaults;
  for (const AttrValue& entry : list->as_list()) {
    if (!entry.is_string()) continue;
    if (auto loid = ParseLoid(entry.as_string()); loid.has_value()) {
      vaults.push_back(*loid);
    }
  }
  return vaults;
}

double NumberOr(const CollectionRecord& record, std::string_view name,
                double fallback) {
  const AttrValue* value = record.attributes.Get(name);
  if (value == nullptr || !value->is_numeric() ||
      std::isnan(value->as_double())) {
    return fallback;
  }
  return value->as_double();
}

ObjectMapping SchedulerObject::MapOnto(const Loid& class_loid,
                                       const CollectionRecord& host,
                                       const Loid& vault) {
  ObjectMapping mapping;
  mapping.class_loid = class_loid;
  mapping.host = host.member;
  mapping.vault = vault;
  // Implementation selection (§3.3 implemented): the host's "arch/os".
  const AttrValue* arch = host.attributes.Get("host_arch");
  const AttrValue* os = host.attributes.Get("host_os_name");
  if (arch != nullptr && os != nullptr && arch->is_string() &&
      os->is_string()) {
    mapping.implementation = arch->as_string() + "/" + os->as_string();
  }
  return mapping;
}

// ---- The shared candidate pipeline (figures 7 and 8) ------------------------

void SchedulerObject::QueryPool(const Loid& class_loid, QueryOptions bounds,
                                std::size_t min_keep,
                                Callback<CollectionData> done) {
  bounds.domain_scope = domain_scope_;
  // "query the class for available implementations"
  GetImplementations(
      class_loid,
      [this, class_loid, bounds, min_keep, done = std::move(done)](
          Result<std::vector<Implementation>> implementations) mutable {
        if (!implementations.ok()) {
          done(implementations.status());
          return;
        }
        // "query Collection for Hosts matching available implementations"
        QueryHosts(
            HostMatchQuery(*implementations), bounds,
            [this, class_loid, min_keep,
             done = std::move(done)](Result<CollectionData> hosts) {
              if (hosts.ok()) {
                if (hosts->empty()) {
                  done(Status::Error(ErrorCode::kNoResources,
                                     "no matching hosts for class " +
                                         class_loid.ToString()));
                  return;
                }
                // Demote suspects before choosing: a choice spent on a
                // host whose breaker is already open is wasted.
                FilterSuspects(&*hosts, min_keep);
              }
              done(std::move(hosts));
            });
      });
}

struct SchedulerObject::Walk {
  PlacementRequest request;
  QueryOptions bounds;
  ClassPlacer place;
  Callback<ScheduleRequestList> done;
  std::size_t next_class = 0;
  ChoiceLists choices;
};

void SchedulerObject::PlaceEachClass(const PlacementRequest& request,
                                     const QueryOptions& bounds,
                                     ClassPlacer place,
                                     Callback<ScheduleRequestList> done) {
  auto walk = std::make_shared<Walk>();
  walk->request = request;
  walk->bounds = bounds;
  walk->place = std::move(place);
  walk->done = std::move(done);
  NextClass(walk);
}

void SchedulerObject::NextClass(const std::shared_ptr<Walk>& walk) {
  if (walk->next_class == walk->request.size()) {
    walk->done(MasterWithVariants(walk->choices));
    return;
  }
  const InstanceRequest wanted = walk->request[walk->next_class++];
  QueryPool(wanted.class_loid, walk->bounds, 1,
            [this, walk, wanted](Result<CollectionData> pool) {
              if (!pool.ok()) {
                walk->done(pool.status());
                return;
              }
              Status placed = walk->place(wanted, *pool, &walk->choices);
              if (!placed.ok()) {
                walk->done(std::move(placed));
                return;
              }
              NextClass(walk);
            });
}

Result<ScheduleRequestList> SchedulerObject::MasterWithVariants(
    const ChoiceLists& choices) {
  if (choices.empty()) {
    return Status::Error(ErrorCode::kNoResources,
                         "no mappings could be generated");
  }
  const std::size_t instances = choices.size();
  MasterSchedule master;
  // "master sched. = first item from each object inst. list"
  master.mappings.reserve(instances);
  for (const auto& per_instance : choices) {
    master.mappings.push_back(per_instance.front());
  }
  // "for l := 2 to n: select the l-th component of the list for each
  //  object instance; construct a list of all that do not appear in the
  //  master list; append to list of variant schedules"
  const std::size_t ranks = choices.front().size();
  for (std::size_t l = 1; l < ranks; ++l) {
    VariantSchedule variant;
    variant.replaces.Resize(instances);
    for (std::size_t i = 0; i < instances; ++i) {
      const ObjectMapping& candidate =
          choices[i][std::min(l, choices[i].size() - 1)];
      if (candidate == master.mappings[i]) continue;
      variant.replaces.Set(i);
      variant.mappings.emplace_back(i, candidate);
    }
    if (!variant.mappings.empty()) {
      master.variants.push_back(std::move(variant));
    }
  }
  ScheduleRequestList list;
  list.masters.push_back(std::move(master));
  return list;
}

// ---- The figure-9 run loop ---------------------------------------------------

struct SchedulerObject::RunState {
  PlacementRequest request;
  RunOptions options;
  Callback<RunOutcome> done;
  RunOutcome outcome;
  int enact_attempts_this_schedule = 0;
};

void SchedulerObject::ScheduleAndEnact(const PlacementRequest& request,
                                       RunOptions options,
                                       Callback<RunOutcome> done) {
  runs_cell_->Add();
  auto state = std::make_shared<RunState>();
  state->request = request;
  state->options = options;
  // Root span of the negotiation: everything the run causes -- the
  // Collection query, each reservation round, the enactment -- hangs off
  // this ID in the trace.
  obs::TraceLog& trace = kernel()->trace();
  obs::SpanId span = obs::kNoSpan;
  if (trace.enabled()) {
    span = trace.BeginSpan(kernel()->Now(), "schedule_and_enact", "scheduler",
                           trace.current(), {{"scheduler", name_}});
  }
  state->done = [this, span, done = std::move(done)](Result<RunOutcome> r) {
    if (r.ok() && r->success) successes_cell_->Add();
    if (span != obs::kNoSpan) {
      kernel()->trace().EndSpan(
          kernel()->Now(), span,
          {{"success", r.ok() && r->success ? "true" : "false"}});
    }
    done(std::move(r));
  };
  if (span != obs::kNoSpan) {
    obs::ScopedCurrent ctx(trace, span);
    RunScheduleAttempt(state);
  } else {
    RunScheduleAttempt(state);
  }
}

void SchedulerObject::RunScheduleAttempt(
    const std::shared_ptr<RunState>& state) {
  if (state->outcome.sched_attempts >= state->options.sched_try_limit) {
    state->done(std::move(state->outcome));
    return;
  }
  ++state->outcome.sched_attempts;
  state->enact_attempts_this_schedule = 0;
  ComputeSchedule(state->request,
                  [this, state](Result<ScheduleRequestList> schedule) {
                    if (!schedule.ok() || schedule->empty()) {
                      RunScheduleAttempt(state);
                      return;
                    }
                    RunEnactAttempt(state, *schedule);
                  });
}

void SchedulerObject::RunEnactAttempt(const std::shared_ptr<RunState>& state,
                                      const ScheduleRequestList& schedule) {
  if (state->enact_attempts_this_schedule >= state->options.enact_try_limit) {
    RunScheduleAttempt(state);
    return;
  }
  ++state->enact_attempts_this_schedule;
  ++state->outcome.enact_attempts;

  auto* enactor = dynamic_cast<EnactorObject*>(kernel()->FindActor(enactor_));
  if (enactor == nullptr) {
    state->outcome.success = false;
    state->done(std::move(state->outcome));
    return;
  }
  // Pass the entire set of schedules to make_reservations() and wait for
  // feedback (figure 6 usage).  Receiving the feedback and choosing to
  // proceed is the paper's "Enactor consults with the Scheduler to
  // confirm the schedule" step.
  CallOn<ScheduleFeedback, EnactorObject>(
      kernel(), loid(), enactor_, kMediumMessage, kMediumMessage,
      kDefaultRpcTimeout,
      [schedule](EnactorObject& e, Callback<ScheduleFeedback> reply) {
        e.MakeReservations(schedule, std::move(reply));
      },
      [this, state, schedule](Result<ScheduleFeedback> feedback) {
        if (!feedback.ok() || !feedback->success) {
          if (feedback.ok()) {
            state->outcome.feedback = *feedback;
            // Per-mapping granularity of the failure: how many slots of
            // the last tried master never secured a reservation.
            mappings_unplaced_cell_->Add(feedback->failed_indices.size());
          }
          RunEnactAttempt(state, schedule);
          return;
        }
        state->outcome.feedback = *feedback;
        CallOn<EnactResult, EnactorObject>(
            kernel(), loid(), enactor_, kMediumMessage, kMediumMessage,
            kDefaultRpcTimeout,
            [fb = *feedback](EnactorObject& e, Callback<EnactResult> reply) {
              e.EnactSchedule(fb, std::move(reply));
            },
            [this, state, schedule](Result<EnactResult> enacted) {
              if (enacted.ok()) state->outcome.enacted = *enacted;
              if (enacted.ok() && enacted->success) {
                state->outcome.success = true;
                state->done(std::move(state->outcome));
                return;
              }
              // Enactment failed: release what we still hold, then retry
              // within this schedule's enact budget.
              auto* enactor = dynamic_cast<EnactorObject*>(
                  kernel()->FindActor(enactor_));
              if (enactor != nullptr &&
                  state->outcome.feedback.success) {
                enactor->CancelReservations(state->outcome.feedback,
                                            [](Result<std::size_t>) {});
              }
              RunEnactAttempt(state, schedule);
            },
            "enact_schedule");
      },
      "make_reservations");
}

}  // namespace legion
