// Host Objects (paper sections 2.1 and 3.1).
//
// "Host Objects encapsulate machine capabilities (e.g., a processor and
// its associated memory) and are responsible for instantiating objects on
// the processor.  In this way, the Host acts as an arbiter for the
// machine's capabilities."
//
// HostObject implements the full Table 1 resource-management interface
// (reservation management, process management, information reporting),
// grants the four reservation types of Table 2 through its
// ReservationTable, enforces a pluggable local placement policy (the
// autonomy guarantee), reassesses its state periodically and repopulates
// its attribute database, pushes updates into Collections, and raises RGE
// trigger events (e.g. "load above threshold") that the Monitor can hook.
//
// Every host kind takes an instance through one lifecycle: StartObject
// admits it, LaunchObjects fetches its binary and creates it, and it
// waits under its hold (if any) until the host starts it.  One record
// per instance (vault, demand, hold serial) moves from the waiting set
// to the running set and back if a queue vacates it.  Releasing the
// hold withdraws what still waits under it and kills what runs under it;
// KillObject reaches a waiting instance as well as a running one.  Host
// kinds differ only in Place, which decides when a waiting instance may
// run.  This base class behaves like the paper's "standard Unix Host
// Object": instances start at once, or when their reservation window
// opens, and the reservation table lives in the Host because the
// underlying OS has no notion of reservations.  Subclasses model SMPs and
// batch-queue-fronted machines.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "objects/interfaces.h"
#include "objects/legion_object.h"
#include "resources/load_model.h"
#include "resources/placement_policy.h"
#include "resources/reservation.h"

namespace legion {

// Static machine description.
struct HostSpec {
  std::string name = "host";
  std::string arch = "x86";
  std::string os_name = "Linux";
  std::string os_version = "2.2";
  std::uint32_t cpus = 1;
  double speed_mips = 100.0;       // per-CPU compute rate
  std::size_t memory_mb = 512;
  double cost_per_cpu_second = 0.0;
  std::uint32_t domain = 0;
  double oversubscription = 4.0;   // timesharing headroom
  Duration reassess_period = Duration::Seconds(10);
  LoadModelParams load;
};

class HostObject : public LegionObject, public HostInterface {
 public:
  // How long a completed batch reply stays replayable for retransmitted
  // batch ids.  Must comfortably exceed any requester's retry horizon
  // (rpc timeout x attempts + backoff); an evicted entry makes a
  // retransmission re-admit, which is exactly what the cache prevents.
  static constexpr Duration kBatchReplayRetention = Duration::Minutes(10);

  HostObject(SimKernel* kernel, Loid loid, HostSpec spec,
             std::uint64_t secret_seed);

  const HostSpec& spec() const { return spec_; }

  // ---- HostInterface (Table 1) -------------------------------------------
  void MakeReservation(const ReservationRequest& request,
                       Callback<ReservationToken> done) override;
  void MakeReservationBatch(const ReservationBatchRequest& request,
                            Callback<ReservationBatchReply> done) override;
  void CheckReservation(const ReservationToken& token,
                        Callback<bool> done) override;
  void CancelReservation(const ReservationToken& token,
                         Callback<bool> done) override;
  void CancelReservationBatch(const std::vector<ReservationToken>& tokens,
                              Callback<std::size_t> done) override;
  void StartObject(const StartObjectRequest& request,
                   Callback<std::vector<Loid>> done) override;
  void KillObject(const Loid& object, Callback<bool> done) override;
  void DeactivateObject(const Loid& object, Callback<bool> done) override;
  void GetCompatibleVaults(Callback<std::vector<Loid>> done) override;
  void VaultOk(const Loid& vault, Callback<bool> done) override;

  // ---- Configuration -------------------------------------------------------
  void AddCompatibleVault(const Loid& vault);
  void SetPolicy(std::unique_ptr<PlacementPolicy> policy);
  // Wires an implementation-cache service object (paper §2): launches of
  // a not-yet-seen implementation first pull its binary through the
  // cache, so cold starts pay a visible transfer cost.
  void SetImplementationCache(const Loid& cache) { impl_cache_ = cache; }
  // Registers a Collection this host pushes attribute updates into.
  void AddCollection(const Loid& collection);
  // Removes all push targets (pull-only configurations, experiment E5).
  void ClearCollections() { collections_.clear(); }
  // Starts/stops the periodic state reassessment.
  void StartReassessment();
  void StopReassessment();

  // ---- State -----------------------------------------------------------------
  // Load as exported in "host_load": background + per-CPU object demand.
  double CurrentLoad() const;
  // Compute rate an object sees given current multiplexing.
  double EffectiveSpeedPerObject() const;
  std::size_t running_count() const { return running_.size(); }
  const ReservationTable& reservations() const { return table_; }
  ReservationTable& mutable_reservations() { return table_; }

  // Injects a background-load spike and reflects it immediately in the
  // exported attributes + triggers (migration experiments).
  void SpikeLoad(double level);
  // Raises the load model only; the spike becomes visible at the next
  // periodic reassessment -- models detection latency.
  void SpikeLoadQuietly(double level) { load_model_.Spike(level); }

  // Immediately recomputes attributes, evaluates triggers, and pushes to
  // Collections (also called by the periodic timer).
  void ReassessState();

  // Notification that an object finished on its own (workload executor);
  // frees its resources and retires the object.
  void FinishObject(const Loid& object);

  // Reactivation path (paper: "object reactivation is initiated by an
  // attempt to access the object; no explicit Host Object method is
  // necessary" -- this is that implicit path, exposed for the migration
  // engine): fetch the OPR from `vault`, restore, and run the object
  // here.  The returning object holds no token, so it is admitted like a
  // token-less start: the local policy and the running capacity decide.
  void ReactivateObject(const Loid& object, const Loid& vault,
                        Callback<bool> done);

  // Counters for experiments.
  std::uint64_t objects_started() const { return objects_started_; }
  std::uint64_t starts_refused() const { return starts_refused_; }
  // Replay-cache observability: hits are retransmitted batch ids served
  // from the cache or joined to their still-probing original; misses are
  // retransmissions (request.retransmit set) that found neither -- either
  // the original request was lost (benign re-admission) or the reply aged
  // out of the cache (a possible double-admit; widen
  // kBatchReplayRetention).
  std::uint64_t batch_replay_hits() const { return batch_replay_hits_; }
  std::uint64_t batch_replay_misses() const { return batch_replay_misses_; }

 protected:
  // What a host remembers about each instance it has created, waiting or
  // running.
  struct InstanceRecord {
    Loid vault;
    std::size_t memory_mb = 0;
    double cpu_fraction = 1.0;
    std::uint64_t reservation_serial = 0;  // 0 = no reservation
  };

  // The one cancel step behind CancelReservation and
  // CancelReservationBatch: releases the token's hold if it is ours and
  // live, withdraws every instance still waiting under it, then kills
  // every object still running under it (one whose start reply or kill
  // was lost; nobody else can reach it).  Returns whether a hold was
  // released.
  bool ReleaseHold(const ReservationToken& token);
  // Admission for token-less starts (the Class's default placement path).
  virtual Status AdmitWithoutReservation(const StartObjectRequest& request);
  // The local policy's verdict on an object that holds no reservation (a
  // token-less start or a reactivation): the policy sees a
  // reservation-shaped request from the object's class for `window` from
  // now.
  Status PermitWithoutReservation(const Loid& class_loid, const Loid& vault,
                                  std::size_t memory_mb, double cpu_fraction,
                                  Duration window) const;
  // kNoResources unless `cpu` more CPU share and `memory_mb` more memory
  // fit beside the running objects.
  Status CheckRunningCapacity(double cpu, std::size_t memory_mb) const;

  // Fetches the implementation binary (through the implementation cache
  // if one is wired, else from the class), then LaunchPrepared.  Calls
  // `done` with the instances once they are created.
  void LaunchObjects(const StartObjectRequest& request,
                     std::uint64_t reservation_serial,
                     Callback<std::vector<Loid>> done);
  // Launch after the binary is locally available: creates the inactive
  // instances, enters each in the waiting set with its record (the hold
  // is `reservation_serial`), and hands them to Place.
  void LaunchPrepared(const StartObjectRequest& request,
                      std::uint64_t reservation_serial,
                      Callback<std::vector<Loid>> done);
  // Decides when the request's waiting instances run.  The Unix host
  // starts them now, or when the reservation window opens; batch hosts
  // queue them as one job.
  virtual void Place(const StartObjectRequest& request,
                     std::uint64_t reservation_serial);

  // Subclass hook to add attributes during repopulation.
  virtual void ExtendAttributes(AttributeDatabase& attrs) { (void)attrs; }
  virtual std::string HostKind() const { return "unix"; }
  // Called whenever an instance leaves the host: killed, finished,
  // deactivated, or withdrawn before it started.  It is already out of
  // both the running and the waiting set.  Batch hosts use it to
  // withdraw the instance from its job.
  virtual void OnDeparted(const Loid& object) { (void)object; }

  // Starts those of `instances` that are still waiting: each moves with
  // its record from the waiting set to the running set.
  void ActivateCreated(const std::vector<Loid>& instances);
  // Activates `object` here on the record's vault and registers it as
  // running under the record's hold.  The object records its demand so
  // it can be readmitted after migration or reactivation.
  Status RunObject(LegionObject& object, const InstanceRecord& record);

  // Takes `object` off this host: a running object releases its
  // resources, a waiting one leaves the waiting set; `kill` also retires
  // it.  Returns false if the object is neither.
  bool ReleaseObject(const Loid& object, bool kill);
  // The end of every departure: retires `object` if `kill` (marks it dead
  // and removes it from the kernel), runs OnDeparted and refreshes the
  // attributes.
  void Depart(const Loid& object, bool kill);

  double RunningCpuDemand() const;
  std::size_t RunningMemoryDemand() const;

  // Admission subclass hook (DESIGN.md §11), run for every slot of every
  // request -- a single MakeReservation is a one-slot batch.  It gives
  // the machine-specific layer a veto over each slot before the table
  // sees it (batch-queue hosts ask the queue to honor the window).
  // FinishBatch runs veto then admit per slot before judging the next,
  // so each veto sees every window the table granted before it.
  virtual Status PreAdmitSlot(const ReservationRequest& request, SimTime now) {
    (void)request;
    (void)now;
    return Status::Ok();
  }

  void RepopulateAttributes();
  void PushToCollections();

  // A batch waiting on vault probes: outcomes accumulate while unknown
  // vaults are probed, and every retransmission that arrives in the
  // meantime joins `waiters`.  A batch with nothing to probe is admitted
  // at once and never becomes one.
  struct PendingBatch {
    ReservationBatchRequest request;
    std::vector<Callback<ReservationBatchReply>> waiters;
    std::vector<BatchSlotOutcome> outcomes;  // one per slot, in slot order
    std::size_t pending_probes = 0;
  };
  // Runs each slot whose outcome still reads OK (the screening refused it
  // nothing) through the veto/admit ladder in slot order and returns the
  // reply, which a nonzero batch id keeps for replays.
  ReservationBatchReply FinishBatch(const ReservationBatchRequest& request,
                                    std::vector<BatchSlotOutcome> outcomes);
  // Drops answered batches older than kBatchReplayRetention.
  void EvictStaleBatchReplies(SimTime now);

  HostSpec spec_;
  TokenAuthority authority_;
  ReservationTable table_;
  std::unique_ptr<PlacementPolicy> policy_;
  LoadModel load_model_;
  std::vector<Loid> compatible_vaults_;
  std::vector<Loid> collections_;
  Loid impl_cache_;  // invalid = no cache wired (binaries are free)
  std::unordered_map<Loid, InstanceRecord> running_;
  // Instances created here but not running: deferred to a window, queued,
  // or vacated by the queue.
  std::unordered_map<Loid, InstanceRecord> waiting_;
  // At-most-once admission, one entry per (requester, batch id): the
  // batch while it waits on a vault probe, so a retransmission joins it
  // instead of admitting again, then only its reply, which a
  // retransmission gets back.  Answered entries queue in `batch_order_`
  // with their answer time and are evicted past the retention horizon
  // (a count cap would let heavy traffic evict replies that a
  // retransmission still needs).
  using BatchKey = std::pair<Loid, std::uint64_t>;
  struct BatchEntry {
    std::shared_ptr<PendingBatch> in_flight;  // null once answered
    ReservationBatchReply reply;
  };
  std::map<BatchKey, BatchEntry> batches_;
  std::deque<std::pair<BatchKey, SimTime>> batch_order_;
  SimKernel::PeriodicId reassess_timer_ = 0;
  bool joined_collections_ = false;
  std::uint64_t objects_started_ = 0;
  std::uint64_t starts_refused_ = 0;
  std::uint64_t batch_replay_hits_ = 0;
  std::uint64_t batch_replay_misses_ = 0;
};

// A shared-memory multiprocessor host: same protocol, several CPUs, and
// StartObject's batched instance list is the efficient creation path the
// paper calls out for multiprocessor systems.
class SmpHost : public HostObject {
 public:
  SmpHost(SimKernel* kernel, Loid loid, HostSpec spec,
          std::uint64_t secret_seed)
      : HostObject(kernel, loid, std::move(spec), secret_seed) {}

 protected:
  std::string HostKind() const override { return "smp"; }
};

}  // namespace legion
