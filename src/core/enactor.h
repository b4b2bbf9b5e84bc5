// The Enactor (paper section 3.4, figure 6).
//
// "A Scheduler first passes in the entire set of schedules to the
// make_reservations() call, and waits for feedback. ... If any schedule
// succeeded, the Scheduler can then use the enact_schedule() call to
// request that the Enactor instantiate objects on the reserved resources,
// or the cancel_reservations() method to release the resources."
//
// Variant handling: "If all mappings in the master schedule succeed, then
// scheduling is complete.  If not, then a variant schedule is selected
// that contains a new entry for the failed mapping. ... Implementing the
// variant schedule entails making new reservations for items in the
// variant schedule and canceling any corresponding reservations from the
// master schedule.  Our default Schedulers and Enactor work together to
// structure the variant schedules so as to avoid reservation thrashing
// (the canceling and subsequent remaking of the same reservation).  Our
// data structure includes a bitmap field (one bit per object mapping) for
// each variant schedule which allows the Enactor to efficiently select
// the next variant schedule to try."
//
// The Enactor is also the co-allocator: reservation requests for one
// schedule go out to all named hosts -- possibly in several
// administrative domains -- concurrently, and the schedule commits only
// if every mapping holds a token.
//
// For experiment E2 the bitmap-guided path can be disabled
// (use_variant_bitmaps = false): the Enactor then cancels *all* held
// reservations on any failure and retries the next variant from scratch,
// which exhibits exactly the thrashing the paper's design avoids.
#pragma once

#include <deque>
#include <memory>
#include <set>

#include "base/rng.h"
#include "core/health.h"
#include "core/schedule.h"
#include "objects/interfaces.h"
#include "objects/legion_object.h"

namespace legion {

// Per-mapping recovery of transient (kTimeout) reservation failures:
// bounded retries with deterministic exponential backoff and jitter
// drawn from the enactor's seeded RNG.  max_attempts counts the first
// try, so 1 disables retries (the pre-resilience behavior).
struct RetryPolicy {
  int max_attempts = 3;
  Duration base_delay = Duration::Millis(200);
  double multiplier = 2.0;
  Duration max_delay = Duration::Seconds(10);
  // Each delay is scaled by a uniform factor in [1-j, 1+j].
  double jitter_fraction = 0.25;
};

struct EnactorOptions {
  // How long a granted reservation waits for its confirmation.
  Duration confirm_timeout = Duration::Minutes(5);
  Duration rpc_timeout = kDefaultRpcTimeout;
  // Batched negotiation (DESIGN.md §11): a round's requests are grouped
  // by target host and sent as ReserveBatch RPCs of at most
  // max_batch_size slots.  1 = one make_reservation RPC per mapping,
  // outside the batch window, each a one-slot batch with its own replay
  // id; its replies settle through the same per-slot code, so placements
  // are byte-identical either way and the batch path only saves round
  // trips and wire bytes.  CancelReservations chunks each host's tokens
  // at the same cap (1 = one RPC per token).
  std::size_t max_batch_size = 64;
  // Bitmap-guided variant selection (the paper's design).  When false,
  // any failure cancels every held reservation and the next variant is
  // tried as a whole schedule (naive baseline).
  bool use_variant_bitmaps = true;
  // Transient-failure recovery within one negotiation.
  RetryPolicy retry;
};

// ---- Figure 3's negotiation steps, one implementation each ------------------
// The Enactor and layering mode (a), which negotiates with the hosts
// itself, both go through these; `sender` is the object the messages go
// out from and, for a reservation, the requester the host sees.

// The reservation request for one mapping: a one-shot timesharing window
// of one hour starting now, sized by the class's per-instance demand.
ReservationRequest ReservationRequestFor(SimKernel* kernel, const Loid& sender,
                                         const ObjectMapping& mapping,
                                         Duration confirm_timeout);

// Sends cancel_reservation for `token` to its host; `done` gets the
// host's answer (true = a hold was released).
void CancelToken(SimKernel* kernel, const Loid& sender,
                 const ReservationToken& token, Duration rpc_timeout,
                 Callback<bool> done);

// Steps 7-9: one create_instance call per mapping on its class, with the
// mapping's host, vault, implementation and token as the placement
// suggestion.  `done` runs once every call has answered, with the
// results in mapping order.  All or nothing: if any call failed, every
// instance that did start is sent kill_object, forgotten by its class
// and reported as an error.
void CreateInstances(SimKernel* kernel, const Loid& sender,
                     const std::vector<ObjectMapping>& mappings,
                     const std::vector<ReservationToken>& tokens,
                     Duration rpc_timeout,
                     std::function<void(std::vector<Result<Loid>>)> done);

class EnactorObject : public LegionObject {
 public:
  // Backpressure: at most this many batches in flight at once; overflow
  // parks in a FIFO admission queue instead of flooding the event queue
  // and the WAN.
  static constexpr std::size_t kMaxOutstandingBatches = 32;

  // Starts with default options; tune them through options().
  EnactorObject(SimKernel* kernel, Loid loid);

  // ---- Figure 6 interface ---------------------------------------------------
  // &LegionScheduleFeedback make_reservations(&LegionScheduleList);
  void MakeReservations(const ScheduleRequestList& request,
                        Callback<ScheduleFeedback> done);
  // int cancel_reservations(&LegionScheduleRequestList);
  // Groups the tokens by host and sends each host one
  // cancel_reservation_batch RPC per max_batch_size tokens; `done` gets
  // the number of holds the hosts released.  Best effort: a lost chunk
  // counts 0, and its holds lapse at their confirmation timeout.
  void CancelReservations(const std::vector<ReservationToken>& tokens,
                          Callback<std::size_t> done);
  void CancelReservations(const ScheduleFeedback& feedback,
                          Callback<std::size_t> done);
  // &LegionScheduleRequestList enact_schedule(&LegionScheduleRequestList);
  void EnactSchedule(const ScheduleFeedback& feedback,
                     Callback<EnactResult> done);

  EnactorOptions& options() { return options_; }

  // The shared host/domain health view (the circuit breaker): the
  // Enactor fails suspect targets fast (no RPC round trip) and probes
  // them again after a cooldown; schedulers consult it to demote or skip
  // suspect hosts in their candidate pools.  Tune it, or switch it off,
  // through health().options().
  HealthTracker& health() { return health_; }
  const HealthTracker& health() const { return health_; }

 private:
  struct Negotiation;

  // One ReserveBatch unit of work: a chunk of a round's indices bound
  // for one host.  Lives in the parked queue under backpressure.
  //
  // At-most-once retransmission: the wire payload (`request`) is frozen
  // at first send and a timeout resends it -- same id, same full slot
  // set, flagged as a retransmission -- so the host can always
  // replay-dedup, even when only a subset of the slots is still worth
  // retrying.  `wanted` tracks that subset (== `indices` on first send);
  // replies for slots no longer wanted are ignored, except that stray
  // grants are cancelled.
  //
  // The host's later slots of the round (`rest`) wait inside the batch
  // until its fate is settled, then go out as the next batch: a smaller
  // trailing chunk is a smaller message and would otherwise overtake the
  // bigger one on the wire, making the host admit the round's slots out
  // of mapping order (and so decide differently than cap 1 would).
  // Their slots stay counted in the negotiation's `outstanding`, so the
  // round cannot complete under them.
  struct Batch {
    std::shared_ptr<Negotiation> negotiation;
    Loid host;
    std::vector<std::size_t> indices;  // slots in the wire request
    std::vector<std::size_t> wanted;   // ordered subset still negotiating
    std::vector<std::size_t> rest;     // the host's later slots
    std::uint64_t id = 0;
    // Frozen at first send and handed to the host as it is; the first
    // retransmission swaps in a flagged copy that later ones reuse.
    std::shared_ptr<const ReservationBatchRequest> request;
  };

  void StartMaster(const std::shared_ptr<Negotiation>& n);
  void RequestMissing(const std::shared_ptr<Negotiation>& n);
  // Cap 1: one make_reservation RPC for one mapping, sent as a one-slot
  // batch whose id the mapping's retries resend.
  void ReserveIndex(const std::shared_ptr<Negotiation>& n, std::size_t index);
  void FailIndexFast(const std::shared_ptr<Negotiation>& n, std::size_t index);
  // Per-slot settlement, shared by make_reservation (cap 1) and
  // ReserveBatch.  CountAttempt counts and audits one attempt (batch id
  // 0 = cap 1); ReservationRequestFor builds the slot's wire request;
  // ApplySlotAnswer applies the host's answer for one slot;
  // ApplyRpcFailure applies a failed RPC to one slot, including the
  // health signal and the retry decision (true = retry the slot).
  void CountAttempt(const Negotiation& n, std::size_t index,
                    std::uint64_t batch_id);
  void ApplySlotAnswer(Negotiation& n, const Loid& host,
                       const BatchSlotOutcome& outcome);
  bool ApplyRpcFailure(Negotiation& n, std::size_t index, const Loid& host,
                       const Status& status);
  // Batch pipeline: EnqueueBatch takes a host's remaining slots of the
  // round, mints the at-most-once id for a batch of the first
  // max_batch_size and keeps the others in its `rest`, then hands to
  // DispatchBatch, which either sends or parks under backpressure;
  // PumpParked drains the queue as replies free slots.  Retransmissions
  // skip EnqueueBatch: they re-dispatch a copy of the original Batch
  // (same id, same frozen payload, same `rest`) with a narrowed `wanted`
  // set.
  void EnqueueBatch(const std::shared_ptr<Negotiation>& n, const Loid& host,
                    std::vector<std::size_t> indices);
  void DispatchBatch(Batch batch);
  void SendBatch(Batch batch);
  void OnBatchReply(Batch batch, Result<ReservationBatchReply> result);
  void PumpParked();
  Duration BackoffDelay(int retry_number);
  void OnRoundComplete(const std::shared_ptr<Negotiation>& n);
  void AbandonMaster(const std::shared_ptr<Negotiation>& n);
  void Succeed(const std::shared_ptr<Negotiation>& n);
  void Fail(const std::shared_ptr<Negotiation>& n);
  void CancelHeld(const std::shared_ptr<Negotiation>& n, std::size_t index);

  // Decision audit (obs/audit.h): every reservation-slot lifecycle
  // transition is recorded keyed by the negotiation id when the kernel's
  // audit log is enabled.  AuditSlot writes nid, slot, host, then
  // `extra`; AuditNegotiation writes nid, then `fields`.  A disabled log
  // costs one branch and no allocations: AuditSlot checks AuditOn()
  // itself, and every site that builds `extra` or `fields` checks it
  // first.
  bool AuditOn() const { return kernel()->audit().enabled(); }
  void AuditSlot(const char* kind, const Negotiation& n, std::size_t index,
                 const Loid& host, obs::TraceArgs extra = {});
  void AuditNegotiation(const char* kind, const Negotiation& n,
                        obs::TraceArgs fields);

  // Registry cells ({component=enactor}), shared by every Enactor of the
  // kernel; hot-path updates are one atomic add.
  struct Cells {
    obs::Counter* negotiations;
    obs::Counter* reservations_requested;
    obs::Counter* reservations_granted;
    obs::Counter* reservations_failed;
    obs::Counter* reservations_cancelled;
    // Thrash metric: a reservation requested for an (index, mapping) pair
    // that was already granted and then cancelled within the same
    // negotiation -- the "canceling and subsequent remaking of the same
    // reservation" the paper's bitmap design avoids.
    obs::Counter* rereservations;
    obs::Counter* enactments;
    obs::Counter* enact_failures;
    obs::Counter* negotiation_rounds;
    // Resilience: retries of transient failures, attempts short-circuited
    // by an open breaker, half-open probes, and mappings granted after at
    // least one transient failure.
    obs::Counter* retries;
    obs::Counter* breaker_open;
    obs::Counter* breaker_probes;
    obs::Counter* partial_recoveries;
    // Batch pipeline: ReserveBatch RPCs, slots across them, and slots
    // that waited because kMaxOutstandingBatches was reached.
    obs::Counter* batches_sent;
    obs::Counter* batched_slots;
    obs::Counter* requests_parked;
    obs::Histogram* batch_size;
  };

  EnactorOptions options_;
  HealthTracker health_;
  Rng rng_;  // backoff jitter; seeded from the sim's network seed
  Cells cells_;
  // Backpressure state shared across negotiations.
  std::deque<Batch> parked_;
  std::size_t outstanding_batches_ = 0;
  std::uint64_t next_batch_id_ = 1;
  // Correlation ids for the decision audit log; reported back to the
  // scheduler in ScheduleFeedback::negotiation_id.
  std::uint64_t next_negotiation_id_ = 1;
};

}  // namespace legion
