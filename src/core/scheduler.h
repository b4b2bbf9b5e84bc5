// The Scheduler (paper section 3.3).
//
// "The Scheduler computes the mapping of objects to resources.  At a
// minimum, the Scheduler knows how many instances of each class must be
// started. ... any Scheduler may query the object classes to determine
// such information (e.g., the available implementations, or memory or
// communication requirements).  The Scheduler obtains resource
// description information by querying the Collection, and then computes
// a mapping of object instances to resources.  This mapping is passed on
// to the Enactor for implementation."
//
// SchedulerObject is the abstract base: it owns the Collection/Enactor
// wiring, implements the generalized run loop of figure 9 (compute a
// schedule, make reservations, enact, retry within limits) as
// ScheduleAndEnact(), and owns the candidate pipeline figures 7 and 8
// share: the per-class pool query (QueryPool), the in-order per-class
// walk with figure 8's master + variants builder (PlaceEachClass), and
// the mapping helper (MapOnto).  A concrete policy overrides
// ComputeSchedule() and supplies only its choice logic: its pool bounds,
// and per class one choice list per instance, best first -- or, for a
// single-class policy with its own variant shape (k-of-n, stencil), the
// schedule built from one pool.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/collection.h"
#include "core/enactor.h"
#include "core/schedule.h"
#include "objects/legion_object.h"

namespace legion {

// What the scheduler is asked to place: instances-per-class.
struct InstanceRequest {
  Loid class_loid;
  std::size_t count = 1;
};
using PlacementRequest = std::vector<InstanceRequest>;

// Extracts the compatible-vault LOIDs from a host's Collection record.
std::vector<Loid> CompatibleVaultsOf(const CollectionRecord& record);

// The attribute `name` of a host's Collection record as a double, or
// `fallback` when the record lacks it or holds anything but a number
// there (NaN included): the Collection stores whatever a member says of
// itself, so a policy never assumes an attribute's kind.
double NumberOr(const CollectionRecord& record, std::string_view name,
                double fallback);

// Figure 9's global limits, as per-call options.
struct RunOptions {
  int sched_try_limit = 3;   // SchedTryLimit
  int enact_try_limit = 2;   // EnactTryLimit
};

// The outcome of a full schedule-reserve-enact run.
struct RunOutcome {
  bool success = false;
  ScheduleFeedback feedback;   // last reservation feedback
  EnactResult enacted;         // last enactment result
  int sched_attempts = 0;
  int enact_attempts = 0;
};

class SchedulerObject : public LegionObject {
 public:
  SchedulerObject(SimKernel* kernel, Loid loid, std::string name,
                  Loid collection, Loid enactor);

  const std::string& name() const { return name_; }

  // Computes a ScheduleRequestList for the placement request.  Policies
  // that cannot produce any feasible schedule complete with an error.
  virtual void ComputeSchedule(const PlacementRequest& request,
                               Callback<ScheduleRequestList> done) = 0;

  // The full pipeline: compute -> make_reservations -> (confirm) ->
  // enact_schedule, with figure 9's retry structure.
  void ScheduleAndEnact(const PlacementRequest& request, RunOptions options,
                        Callback<RunOutcome> done);

  // ---- Federated routing (DESIGN.md §10) ------------------------------------
  // Points the scheduler at a (possibly different) Collection and scopes
  // every subsequent host query to `domain_scope` (-1 = global).  A
  // domain-restricted policy passes the owning sub-Collection and its
  // domain; a global policy passes the federation root.
  void RouteQueries(const Loid& collection, std::int64_t domain_scope = -1) {
    collection_ = collection;
    domain_scope_ = domain_scope;
  }

 protected:
  // One class's candidate pool.  `bounds` carries the policy's
  // max_results/order_by; the routing scope is set here.  An empty reply
  // fails with kNoResources; suspects are demoted keeping at least
  // `min_keep` candidates (see FilterSuspects).
  void QueryPool(const Loid& class_loid, QueryOptions bounds,
                 std::size_t min_keep, Callback<CollectionData> done);

  // choices[i] lists instance i's mappings, best first: entry 0 goes to
  // the master schedule, entry l to the rank-l variant.
  using ChoiceLists = std::vector<std::vector<ObjectMapping>>;
  // Appends one choice list per instance of `wanted`, drawn from `pool`
  // (never empty), or fails the whole schedule.
  using ClassPlacer = std::function<Status(
      const InstanceRequest& wanted, const CollectionData& pool,
      ChoiceLists* choices)>;
  // Figures 7 and 8's per-class walk: QueryPool for each requested class
  // in request order (min_keep 1), `place` on each pool, then the master
  // (every list's first entry) plus one variant per further rank, holding
  // only the entries that differ from the master.  The first list's
  // length sets the ranks; a shorter list repeats its last entry.
  void PlaceEachClass(const PlacementRequest& request,
                      const QueryOptions& bounds, ClassPlacer place,
                      Callback<ScheduleRequestList> done);

  // The mapping of one `class_loid` instance onto `host` and `vault`,
  // recording the implementation the host's record advertises so
  // enactment runs exactly the binary the schedule chose.
  static ObjectMapping MapOnto(const Loid& class_loid,
                               const CollectionRecord& host,
                               const Loid& vault);

  // ---- Decision audit (obs/audit.h) -----------------------------------------
  // One chosen mapping: which class lands on which host at schedule slot
  // `slot`, and the policy's rationale ("random", "rank=3.7", ...).
  // `reason` returns that string and runs only when the log is on.
  template <typename Reason>
  void AuditChoice(std::size_t slot, const ObjectMapping& mapping,
                   const Reason& reason) {
    if (!AuditOn()) return;
    AuditDecision("sched_choice", {{"slot", std::to_string(slot)},
                                   {"class", mapping.class_loid.ToString()},
                                   {"host", mapping.host.ToString()},
                                   {"reason", reason()}});
  }

 private:
  // Scheduler-side audit records carry {"scheduler": name} and no
  // negotiation id (the id is minted later, by the Enactor);
  // ExplainMapping joins them to the lifecycle by host.  Sites guard
  // with AuditOn().
  bool AuditOn() const { return kernel()->audit().enabled(); }
  void AuditDecision(const char* kind, obs::TraceArgs fields);

  // Steps 2-3 of figure 3: acquire application knowledge from the class.
  void GetImplementations(const Loid& class_loid,
                          Callback<std::vector<Implementation>> done);

  // Builds the query text selecting hosts able to run any of the given
  // implementations (the "query Collection for Hosts matching available
  // implementations" step of figures 7 and 8).
  static std::string HostMatchQuery(
      const std::vector<Implementation>& implementations);

  // Queries the Collection over the network; top-k pruning under
  // `options` happens inside the Collection, before the reply is
  // materialized.
  void QueryHosts(const std::string& query, const QueryOptions& options,
                  Callback<CollectionData> done);

  // The Enactor's health view (the breaker state schedulers share), or
  // nullptr when the enactor is unreachable.  A tracker with breakers
  // off reports every host healthy.
  const HealthTracker* health() const;

  // Demotes suspect hosts from a candidate pool: records whose breaker
  // (host or domain) is open are erased, unless doing so would leave
  // fewer than min_keep candidates -- a degraded pool beats an empty
  // one, and suspects must stay reachable for probes when nothing else
  // is left.  Each erased record bumps the suspects_skipped counter.
  void FilterSuspects(CollectionData* hosts, std::size_t min_keep);

  struct Walk;
  void NextClass(const std::shared_ptr<Walk>& walk);
  static Result<ScheduleRequestList> MasterWithVariants(
      const ChoiceLists& choices);

  struct RunState;
  void RunScheduleAttempt(const std::shared_ptr<RunState>& state);
  void RunEnactAttempt(const std::shared_ptr<RunState>& state,
                       const ScheduleRequestList& schedule);

  std::string name_;
  Loid collection_;
  Loid enactor_;
  std::int64_t domain_scope_ = -1;
  // Registry cells ({component=scheduler, scheduler=<name>}).
  obs::Counter* runs_cell_ = nullptr;
  obs::Counter* successes_cell_ = nullptr;
  obs::Counter* lookups_cell_ = nullptr;
  obs::Counter* suspects_skipped_cell_ = nullptr;
  obs::Counter* mappings_unplaced_cell_ = nullptr;
};

}  // namespace legion
