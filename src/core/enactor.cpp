#include "core/enactor.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <unordered_map>

#include "objects/class_object.h"
#include "objects/core_hierarchy.h"

namespace legion {

namespace {
// Every reservation a negotiator requests is an instantaneous (starting
// now) one-shot timesharing window of this length.
constexpr Duration kReservationDuration = Duration::Hours(1);

// All or nothing: when any create_instance call of an enactment failed,
// the instances that did start would run on under reservations the
// caller is about to cancel.  Each is killed on its host (best effort)
// and forgotten by its class, and its result becomes an error, so
// nothing reports it as started.
void KillStartedIfAnyFailed(SimKernel* kernel, const Loid& sender,
                            const std::vector<ObjectMapping>& mappings,
                            Duration rpc_timeout,
                            std::vector<Result<Loid>>& instances) {
  if (std::all_of(instances.begin(), instances.end(),
                  [](const Result<Loid>& r) { return r.ok(); })) {
    return;
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!instances[i].ok()) continue;
    const Loid instance = *instances[i];
    CallOn<bool, HostInterface>(
        kernel, sender, mappings[i].host, kSmallMessage, kSmallMessage,
        rpc_timeout,
        [instance](HostInterface& host, Callback<bool> reply) {
          host.KillObject(instance, std::move(reply));
        },
        [](Result<bool>) { /* best effort */ }, "kill_object");
    if (auto* klass = dynamic_cast<ClassObject*>(
            kernel->FindActor(mappings[i].class_loid))) {
      klass->ForgetInstance(instance);
    }
    instances[i] = Status::Error(ErrorCode::kUnavailable,
                                 "killed: the enactment failed elsewhere");
  }
}

// Groups `items` by the host `host_of` names: hosts in order of first
// appearance, each group's items in input order (the order a host's table
// admits or releases them in).
template <typename T, typename HostOf>
std::vector<std::pair<Loid, std::vector<T>>> GroupByHost(
    const std::vector<T>& items, HostOf host_of) {
  std::vector<std::pair<Loid, std::vector<T>>> groups;
  std::unordered_map<Loid, std::size_t> group_of;  // host -> groups index
  for (const T& item : items) {
    const Loid& host = host_of(item);
    const auto [it, first] = group_of.try_emplace(host, groups.size());
    if (first) groups.emplace_back(host, std::vector<T>{});
    groups[it->second].second.push_back(item);
  }
  return groups;
}
}  // namespace

ReservationRequest ReservationRequestFor(SimKernel* kernel, const Loid& sender,
                                         const ObjectMapping& mapping,
                                         Duration confirm_timeout) {
  ReservationRequest request;
  request.vault = mapping.vault;
  request.start = kernel->Now();
  request.duration = kReservationDuration;
  request.confirm_timeout = confirm_timeout;
  request.type = ReservationType::OneShotTimesharing();
  request.requester = sender;
  const InstanceDemand demand = InstanceDemandOf(kernel, mapping.class_loid);
  request.memory_mb = demand.memory_mb;
  request.cpu_fraction = demand.cpu_fraction;
  return request;
}

void CancelToken(SimKernel* kernel, const Loid& sender,
                 const ReservationToken& token, Duration rpc_timeout,
                 Callback<bool> done) {
  CallOn<bool, HostInterface>(
      kernel, sender, token.host, kSmallMessage, kSmallMessage, rpc_timeout,
      [token](HostInterface& host, Callback<bool> reply) {
        host.CancelReservation(token, std::move(reply));
      },
      std::move(done), "cancel_reservation");
}

void CreateInstances(SimKernel* kernel, const Loid& sender,
                     const std::vector<ObjectMapping>& mappings,
                     const std::vector<ReservationToken>& tokens,
                     Duration rpc_timeout,
                     std::function<void(std::vector<Result<Loid>>)> done) {
  struct Fanout {
    std::size_t outstanding;
    std::vector<ObjectMapping> mappings;
    std::vector<Result<Loid>> instances;
    std::function<void(std::vector<Result<Loid>>)> done;
  };
  if (mappings.empty()) {
    done({});
    return;
  }
  auto state = std::make_shared<Fanout>(Fanout{
      mappings.size(), mappings,
      std::vector<Result<Loid>>(
          mappings.size(), Status::Error(ErrorCode::kInternal, "pending")),
      std::move(done)});
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const ObjectMapping& mapping = mappings[i];
    PlacementSuggestion suggestion;
    suggestion.host = mapping.host;
    suggestion.vault = mapping.vault;
    suggestion.token = tokens[i];
    suggestion.implementation = mapping.implementation;
    CallOn<Loid, ClassInterface>(
        kernel, sender, mapping.class_loid, kSmallMessage, kSmallMessage,
        rpc_timeout,
        [suggestion](ClassInterface& klass, Callback<Loid> reply) {
          klass.CreateInstance(suggestion, std::move(reply));
        },
        [kernel, sender, rpc_timeout, state, i](Result<Loid> instance) {
          state->instances[i] = std::move(instance);
          if (--state->outstanding == 0) {
            KillStartedIfAnyFailed(kernel, sender, state->mappings,
                                   rpc_timeout, state->instances);
            state->done(std::move(state->instances));
          }
        },
        "create_instance");
  }
}

// The mutable state of one make_reservations() negotiation.  Kept alive
// by shared_ptr across the asynchronous reservation rounds.
struct EnactorObject::Negotiation {
  // Audit correlation id (obs/audit.h); reported back to the scheduler
  // via ScheduleFeedback::negotiation_id.
  std::uint64_t id = 0;
  ScheduleRequestList request;
  Callback<ScheduleFeedback> done;

  std::size_t master = 0;        // which master schedule we are trying
  std::size_t next_variant = 0;  // next variant index to consider
  std::vector<std::size_t> applied_variants;
  std::vector<ObjectMapping> current;            // effective mappings
  std::vector<std::optional<ReservationToken>> tokens;
  // Mappings previously reserved-and-cancelled per index, for the thrash
  // metric.
  std::vector<std::vector<ObjectMapping>> cancelled_history;
  // Transient failures of the *current* mapping per index; reset when a
  // variant installs a new mapping there.
  std::vector<int> attempts;
  // Cap 1: the at-most-once id of each index's one-slot batch, minted on
  // the current mapping's first send and resent by its retries.
  std::vector<std::uint64_t> batch_ids;
  std::size_t outstanding = 0;
  ErrorCode last_code = ErrorCode::kNoResources;
  std::string last_error;
  // Succeed and Fail move `request` and `current` out into the feedback.
  // So everything that can run after the negotiation ended -- SendBatch
  // for a parked batch, OnBatchReply, a cap-1 reply, and the backoff and
  // fast-fail events -- checks `finished` before it reads either.
  bool finished = false;
  // The failure set of the last abandoned master (per-mapping feedback
  // for the scheduler), captured before AbandonMaster cancels the holds.
  std::vector<std::size_t> last_failed_indices;
};

EnactorObject::EnactorObject(SimKernel* kernel, Loid loid)
    : LegionObject(kernel, loid, ServiceClassLoid(loid.domain())),
      health_(kernel),
      rng_(kernel->network().params().seed ^ 0xE7AC70Full) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
  mutable_attributes().Set("service", "enactor");

  obs::MetricsRegistry& metrics = kernel->metrics();
  const obs::Labels labels = {{"component", "enactor"}};
  cells_.negotiations = metrics.GetCounter("negotiations", labels);
  cells_.reservations_requested =
      metrics.GetCounter("reservations_requested", labels);
  cells_.reservations_granted =
      metrics.GetCounter("reservations_granted", labels);
  cells_.reservations_failed =
      metrics.GetCounter("reservations_failed", labels);
  cells_.reservations_cancelled =
      metrics.GetCounter("reservations_cancelled", labels);
  cells_.rereservations = metrics.GetCounter("rereservations", labels);
  cells_.enactments = metrics.GetCounter("enactments", labels);
  cells_.enact_failures = metrics.GetCounter("enact_failures", labels);
  cells_.negotiation_rounds = metrics.GetCounter("negotiation_rounds", labels);
  cells_.retries = metrics.GetCounter("retries", labels);
  cells_.breaker_open = metrics.GetCounter("breaker_open", labels);
  cells_.breaker_probes = metrics.GetCounter("breaker_probes", labels);
  cells_.partial_recoveries =
      metrics.GetCounter("partial_recoveries", labels);
  cells_.batches_sent = metrics.GetCounter("batches_sent", labels);
  cells_.batched_slots = metrics.GetCounter("batched_slots", labels);
  cells_.requests_parked = metrics.GetCounter("requests_parked", labels);
  cells_.batch_size = metrics.GetHistogram(
      "batch_size", labels, {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
}

void EnactorObject::MakeReservations(const ScheduleRequestList& request,
                                     Callback<ScheduleFeedback> done) {
  cells_.negotiations->Add();
  Status valid = request.Validate();
  if (!valid.ok()) {
    ScheduleFeedback feedback;
    feedback.original = request;
    feedback.success = false;
    feedback.failure = ErrorCode::kMalformedSchedule;
    feedback.failure_detail = valid.message();
    done(std::move(feedback));
    return;
  }
  auto n = std::make_shared<Negotiation>();
  n->id = next_negotiation_id_++;
  n->request = request;
  n->done = std::move(done);
  if (AuditOn()) {
    AuditNegotiation("negotiation_begin", *n,
                     {{"masters", std::to_string(request.masters.size())}});
  }
  StartMaster(n);
}

void EnactorObject::StartMaster(const std::shared_ptr<Negotiation>& n) {
  if (n->master >= n->request.masters.size()) {
    Fail(n);
    return;
  }
  const MasterSchedule& master = n->request.masters[n->master];
  if (AuditOn()) {
    AuditNegotiation("master_start", *n,
                     {{"master", std::to_string(n->master)},
                      {"mappings", std::to_string(master.mappings.size())},
                      {"variants", std::to_string(master.variants.size())}});
  }
  n->current = master.mappings;
  n->tokens.assign(master.mappings.size(), std::nullopt);
  n->cancelled_history.assign(master.mappings.size(), {});
  n->attempts.assign(master.mappings.size(), 0);
  n->batch_ids.assign(master.mappings.size(), 0);
  n->applied_variants.clear();
  n->next_variant = 0;
  RequestMissing(n);
}

void EnactorObject::RequestMissing(const std::shared_ptr<Negotiation>& n) {
  // Fire a reservation request for every index without a token.  The
  // requests go out concurrently -- this is the co-allocation step: hosts
  // in several administrative domains negotiate in parallel.
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < n->tokens.size(); ++i) {
    if (!n->tokens[i].has_value()) missing.push_back(i);
  }
  if (missing.empty()) {
    Succeed(n);
    return;
  }
  cells_.negotiation_rounds->Add();
  n->outstanding = missing.size();
  if (options_.max_batch_size <= 1) {
    // Cap 1: one make_reservation RPC per mapping, all sent at once.
    for (std::size_t index : missing) ReserveIndex(n, index);
    return;
  }
  // Batched path (DESIGN.md §11): group the round's requests by target
  // host; EnqueueBatch chunks each group at the cap.  Open breakers still
  // fail per index -- batching never widens the granularity of the health
  // machinery.
  std::vector<std::size_t> healthy;
  for (std::size_t index : missing) {
    if (health_.Healthy(n->current[index].host)) {
      healthy.push_back(index);
    } else {
      FailIndexFast(n, index);
    }
  }
  const auto host_of = [&n](std::size_t i) { return n->current[i].host; };
  for (auto& [host, indices] : GroupByHost(healthy, host_of)) {
    EnqueueBatch(n, host, std::move(indices));
  }
}

void EnactorObject::EnqueueBatch(const std::shared_ptr<Negotiation>& n,
                                 const Loid& host,
                                 std::vector<std::size_t> indices) {
  if (indices.empty()) return;  // the host has no later slots
  Batch batch;
  batch.negotiation = n;
  batch.host = host;
  if (indices.size() > options_.max_batch_size) {
    batch.rest.assign(indices.begin() + options_.max_batch_size,
                      indices.end());
    indices.resize(options_.max_batch_size);
  }
  batch.indices = std::move(indices);
  batch.wanted = batch.indices;
  // At-most-once id, minted once per batch: retransmissions reuse the
  // whole Batch (OnBatchReply's retry path), never pass through here.
  batch.id = next_batch_id_++;
  DispatchBatch(std::move(batch));
}

void EnactorObject::DispatchBatch(Batch batch) {
  if (outstanding_batches_ >= kMaxOutstandingBatches) {
    // Backpressure: park instead of flooding the event queue; the slots
    // stay accounted in the negotiation's outstanding set.
    cells_.requests_parked->Add(batch.wanted.size());
    if (AuditOn()) {
      for (std::size_t index : batch.wanted) {
        AuditSlot("reserve_parked", *batch.negotiation, index, batch.host);
      }
    }
    parked_.push_back(std::move(batch));
    return;
  }
  SendBatch(std::move(batch));
}

void EnactorObject::PumpParked() {
  while (!parked_.empty() && outstanding_batches_ < kMaxOutstandingBatches) {
    Batch batch = std::move(parked_.front());
    parked_.pop_front();
    SendBatch(std::move(batch));
  }
}

void EnactorObject::SendBatch(Batch batch) {
  const std::shared_ptr<Negotiation>& n = batch.negotiation;
  if (n->finished) return;  // parked past its negotiation's end
  // The breaker may have opened while the batch waited for a slot.
  if (!health_.Healthy(batch.host)) {
    for (std::size_t index : batch.wanted) FailIndexFast(n, index);
    // No reply will come to settle the batch: its later slots go now.
    EnqueueBatch(n, batch.host, std::move(batch.rest));
    return;
  }
  if (health_.IsProbe(batch.host)) cells_.breaker_probes->Add();
  for (std::size_t index : batch.wanted) CountAttempt(*n, index, batch.id);

  // Freeze the wire payload on first send; the host reads it in place.  A
  // retransmission resends the same id and full slot set (OnBatchReply
  // flags a copy once), so the host can dedup by id no matter which
  // subset of slots is still wanted, and the message costs the same
  // bytes both times.
  if (batch.request == nullptr) {
    auto request = std::make_shared<ReservationBatchRequest>();
    request->requester = loid();
    request->batch_id = batch.id;
    request->slots.reserve(batch.indices.size());
    for (std::size_t index : batch.indices) {
      request->slots.push_back(BatchSlotRequest{
          index, ReservationRequestFor(kernel(), loid(), n->current[index],
                                       options_.confirm_timeout)});
    }
    batch.request = std::move(request);
  }

  ++outstanding_batches_;
  cells_.batches_sent->Add();
  cells_.batched_slots->Add(batch.indices.size());
  cells_.batch_size->Observe(static_cast<double>(batch.indices.size()));
  // Size-cost the RPC on the wire: one envelope plus a marginal cost per
  // slot, both ways, so NetworkModel charges real transfer time.
  const std::size_t request_bytes =
      kSmallMessage + batch.indices.size() * kBatchSlotMessage;
  const std::size_t reply_bytes =
      kSmallMessage + batch.indices.size() * kBatchSlotReplyMessage;
  // Taken before the call: its arguments may move `batch` first.
  const Loid host = batch.host;
  std::shared_ptr<const ReservationBatchRequest> request = batch.request;
  CallOn<ReservationBatchReply, HostInterface>(
      kernel(), loid(), host, request_bytes, reply_bytes,
      options_.rpc_timeout,
      [request = std::move(request)](HostInterface& host_iface,
                                     Callback<ReservationBatchReply> reply) {
        host_iface.MakeReservationBatch(*request, std::move(reply));
      },
      [this, batch = std::move(batch)](
          Result<ReservationBatchReply> result) mutable {
        OnBatchReply(std::move(batch), std::move(result));
      },
      "reserve_batch");
}

void EnactorObject::OnBatchReply(Batch batch,
                                 Result<ReservationBatchReply> result) {
  --outstanding_batches_;
  // Free slot first: parked batches (possibly of other negotiations)
  // should not wait on this reply's bookkeeping.
  PumpParked();
  const std::shared_ptr<Negotiation>& n = batch.negotiation;
  if (n->finished) return;
  const Loid target = batch.host;
  std::size_t completed = 0;

  if (result.ok()) {
    // The host answered one outcome per wire slot, in slot order, and
    // `wanted` is an ordered subset of the wire slots, so one cursor
    // pairs them.  Only the wanted slots feed the negotiation; the rest
    // of the wire set (slots abandoned between transmissions) is settled
    // already.
    auto next_wanted = batch.wanted.begin();
    for (const BatchSlotOutcome& outcome : result->outcomes) {
      if (next_wanted == batch.wanted.end()) break;
      if (outcome.index != *next_wanted) continue;
      ApplySlotAnswer(*n, target, outcome);
      ++next_wanted;
    }
    completed = batch.wanted.size();
    // A retransmission may carry slots the negotiation abandoned after
    // the original send (retry budget exhausted, possibly re-aimed by a
    // variant since).  A grant for such a slot is a stray hold nobody
    // will redeem: release it instead of letting it pin capacity until
    // expiry.
    if (batch.wanted.size() != batch.indices.size()) {
      next_wanted = batch.wanted.begin();
      for (const BatchSlotOutcome& outcome : result->outcomes) {
        if (next_wanted != batch.wanted.end() &&
            outcome.index == *next_wanted) {
          ++next_wanted;
        } else if (outcome.status.ok()) {
          cells_.reservations_cancelled->Add();
          AuditSlot("stray_grant_cancelled", *n, outcome.index, target);
          CancelToken(kernel(), loid(), outcome.token, options_.rpc_timeout,
                      [](Result<bool>) {});
        }
      }
    }
  } else {
    // The whole RPC failed (timeout, unreachable host): every wanted
    // slot shares the outcome, with the same per-slot health and retry
    // granularity as N concurrent single-slot RPCs would have had.
    std::vector<std::size_t> retryable;
    for (std::size_t index : batch.wanted) {
      if (ApplyRpcFailure(*n, index, target, result.status())) {
        retryable.push_back(index);
      } else {
        ++completed;
      }
    }
    if (!retryable.empty()) {
      // One backoff delay for the retransmission, budgeted by the
      // most-retried slot.  The retried slots keep their outstanding
      // accounting.  The retransmission is the ORIGINAL batch -- same
      // id, same frozen full slot set -- narrowed to the retryable
      // subset via `wanted`, so the host can always replay-dedup even
      // when some slots ran out of retry budget; a fresh id for the
      // smaller set would make a lost-reply batch double-admit.
      // The copy keeps `rest`: the host's later slots wait for it.  Its
      // payload is the original's, flagged as a retransmission; the
      // first retransmission makes the flagged copy and later ones
      // reuse it.
      int attempt = 0;
      for (std::size_t index : retryable) {
        attempt = std::max(attempt, n->attempts[index]);
      }
      Batch retry = batch;
      retry.wanted = std::move(retryable);
      if (!retry.request->retransmit) {
        auto flagged =
            std::make_shared<ReservationBatchRequest>(*retry.request);
        flagged->retransmit = true;
        retry.request = std::move(flagged);
      }
      kernel()->ScheduleAfter(
          BackoffDelay(attempt),
          [this, retry = std::move(retry)] {
            if (retry.negotiation->finished) return;
            DispatchBatch(retry);
          },
          "enactor/backoff");
    }
  }

  // The batch's fate is settled once no wanted slot waits for a
  // retransmission: the host's later slots go out as the next batch.  A
  // retransmission keeps them waiting so the host still sees the round
  // in mapping order.
  if (completed == batch.wanted.size()) {
    EnqueueBatch(n, target, std::move(batch.rest));
  }
  n->outstanding -= completed;
  if (n->outstanding == 0) OnRoundComplete(n);
}

Duration EnactorObject::BackoffDelay(int retry_number) {
  const RetryPolicy& retry = options_.retry;
  Duration delay = retry.base_delay;
  for (int i = 1; i < retry_number && delay < retry.max_delay; ++i) {
    delay = delay * retry.multiplier;
  }
  delay = std::min(delay, retry.max_delay);
  if (retry.jitter_fraction > 0.0) {
    delay = delay * rng_.Uniform(1.0 - retry.jitter_fraction,
                                 1.0 + retry.jitter_fraction);
  }
  return std::max(delay, Duration::Micros(1));
}

// Fails one mapping without spending an RPC round trip (the target's
// breaker is open).  Completion is deferred through the event queue so
// the round's fan-out loop finishes before any round-complete logic runs,
// exactly as with real replies.
void EnactorObject::FailIndexFast(const std::shared_ptr<Negotiation>& n,
                                  std::size_t index) {
  cells_.breaker_open->Add();
  AuditSlot("breaker_fastfail", *n, index, n->current[index].host);
  kernel()->ScheduleAfter(
      Duration::Zero(),
      [this, n, index] {
        if (n->finished) return;
        n->last_code = ErrorCode::kUnavailable;
        n->last_error =
            "breaker open for host " + n->current[index].host.ToString();
        if (--n->outstanding == 0) OnRoundComplete(n);
      },
      "enactor/fastfail");
}

// Cap 1: one make_reservation RPC per mapping, outside the batch window
// and the batch counters.  The slot travels as a one-slot batch whose id
// is minted on the mapping's first send and resent by every retry, so the
// host replays a retry whose first reply was lost instead of admitting
// it twice.  Replies settle through the same per-slot code as a batch
// reply.
void EnactorObject::ReserveIndex(const std::shared_ptr<Negotiation>& n,
                                 std::size_t index) {
  const Loid host = n->current[index].host;
  if (!health_.Healthy(host)) {
    FailIndexFast(n, index);
    return;
  }
  if (health_.IsProbe(host)) cells_.breaker_probes->Add();
  CountAttempt(*n, index, /*batch_id=*/0);
  if (n->attempts[index] == 0) n->batch_ids[index] = next_batch_id_++;
  ReservationBatchRequest request;
  request.requester = loid();
  request.batch_id = n->batch_ids[index];
  request.retransmit = n->attempts[index] > 0;
  request.slots.push_back(BatchSlotRequest{
      index, ReservationRequestFor(kernel(), loid(), n->current[index],
                                   options_.confirm_timeout)});
  CallOn<ReservationBatchReply, HostInterface>(
      kernel(), loid(), host, kSmallMessage, kSmallMessage,
      options_.rpc_timeout,
      [request = std::move(request)](HostInterface& host_iface,
                                     Callback<ReservationBatchReply> reply) {
        host_iface.MakeReservationBatch(request, std::move(reply));
      },
      [this, n, index, host](Result<ReservationBatchReply> result) {
        if (n->finished) return;
        if (result.ok()) {
          // The host answered: a grant or its own refusal.
          ApplySlotAnswer(*n, host, result->outcomes.front());
        } else if (ApplyRpcFailure(*n, index, host, result.status())) {
          kernel()->ScheduleAfter(
              BackoffDelay(n->attempts[index]),
              [this, n, index] {
                if (n->finished) return;
                ReserveIndex(n, index);
              },
              "enactor/backoff");
          return;  // the retry inherits this index's outstanding slot
        }
        if (--n->outstanding == 0) OnRoundComplete(n);
      },
      "make_reservation");
}

// ---- Per-slot settlement, shared by make_reservation and ReserveBatch ----

void EnactorObject::CountAttempt(const Negotiation& n, std::size_t index,
                                 std::uint64_t batch_id) {
  const ObjectMapping& mapping = n.current[index];
  // Thrash metric: are we remaking a reservation we held and cancelled?
  const auto& history = n.cancelled_history[index];
  if (std::find(history.begin(), history.end(), mapping) != history.end()) {
    cells_.rereservations->Add();
  }
  cells_.reservations_requested->Add();
  if (AuditOn()) {
    obs::TraceArgs extra;
    if (batch_id != 0) extra.push_back({"batch", std::to_string(batch_id)});
    extra.push_back({"attempt", std::to_string(n.attempts[index] + 1)});
    AuditSlot("reserve_requested", n, index, mapping.host, std::move(extra));
  }
}

void EnactorObject::ApplySlotAnswer(Negotiation& n, const Loid& host,
                                    const BatchSlotOutcome& outcome) {
  const std::size_t index = outcome.index;
  if (outcome.status.ok()) {
    AuditSlot("reserve_granted", n, index, host);
    health_.RecordSuccess(host);
    cells_.reservations_granted->Add();
    if (n.attempts[index] > 0) cells_.partial_recoveries->Add();
    n.tokens[index] = outcome.token;
  } else {
    // Slot-level refusals and capacity shortfalls are the host's
    // prerogative, not sickness -- no health signal, no retry; the
    // variant machinery takes over per mapping.
    if (AuditOn()) {
      AuditSlot("reserve_failed", n, index, host,
                {{"code", legion::ToString(outcome.status.code())}});
    }
    cells_.reservations_failed->Add();
    n.last_code = outcome.status.code();
    n.last_error = outcome.status.message();
  }
}

bool EnactorObject::ApplyRpcFailure(Negotiation& n, std::size_t index,
                                    const Loid& host, const Status& status) {
  const ErrorCode code = status.code();
  // Unreachability is a health signal.
  if (code == ErrorCode::kTimeout || code == ErrorCode::kUnavailable) {
    health_.RecordFailure(host);
  }
  cells_.reservations_failed->Add();
  n.last_code = code;
  n.last_error = status.message();
  // Transient failure: retry the same mapping in place, with bounded
  // exponential backoff, instead of burning a variant.  A target whose
  // breaker just opened is not worth re-probing inside this negotiation
  // -- fall through to the variants.
  if (code == ErrorCode::kTimeout &&
      n.attempts[index] + 1 < options_.retry.max_attempts &&
      health_.Healthy(host)) {
    ++n.attempts[index];
    cells_.retries->Add();
    if (AuditOn()) {
      AuditSlot("reserve_retry", n, index, host,
                {{"attempt", std::to_string(n.attempts[index] + 1)}});
    }
    return true;
  }
  if (AuditOn()) {
    AuditSlot("reserve_failed", n, index, host,
              {{"code", legion::ToString(code)}});
  }
  return false;
}

void EnactorObject::CancelHeld(const std::shared_ptr<Negotiation>& n,
                               std::size_t index) {
  if (!n->tokens[index].has_value()) return;
  const ReservationToken token = *n->tokens[index];
  n->cancelled_history[index].push_back(n->current[index]);
  n->tokens[index].reset();
  cells_.reservations_cancelled->Add();
  AuditSlot("reservation_cancelled", *n, index, n->current[index].host);
  CancelToken(kernel(), loid(), token, options_.rpc_timeout,
              [](Result<bool>) { /* best effort */ });
}

void EnactorObject::AuditSlot(const char* kind, const Negotiation& n,
                              std::size_t index, const Loid& host,
                              obs::TraceArgs extra) {
  if (!AuditOn()) return;
  obs::TraceArgs fields = {{"nid", std::to_string(n.id)},
                           {"slot", std::to_string(index)},
                           {"host", host.ToString()}};
  std::move(extra.begin(), extra.end(), std::back_inserter(fields));
  kernel()->audit().Record(kernel()->Now(), kind, std::move(fields));
}

void EnactorObject::AuditNegotiation(const char* kind, const Negotiation& n,
                                     obs::TraceArgs fields) {
  fields.insert(fields.begin(), {"nid", std::to_string(n.id)});
  kernel()->audit().Record(kernel()->Now(), kind, std::move(fields));
}

void EnactorObject::OnRoundComplete(const std::shared_ptr<Negotiation>& n) {
  Bitmap failed(n->tokens.size());
  for (std::size_t i = 0; i < n->tokens.size(); ++i) {
    if (!n->tokens[i].has_value()) failed.Set(i);
  }
  if (failed.None()) {
    Succeed(n);
    return;
  }

  const MasterSchedule& master = n->request.masters[n->master];

  if (options_.use_variant_bitmaps) {
    // The paper's design: the bitmap lets the Enactor efficiently select
    // the next variant(s) to try.  Greedily take variants, in order, that
    // replace still-uncovered failed mappings until every failure has a
    // new entry; reservations the variants do not touch are kept.
    std::vector<std::size_t> chosen;
    Bitmap uncovered = failed;
    for (std::size_t v = n->next_variant;
         v < master.variants.size() && uncovered.Any(); ++v) {
      if (!master.variants[v].replaces.Intersects(uncovered)) continue;
      chosen.push_back(v);
      for (const auto& [index, mapping] : master.variants[v].mappings) {
        if (index < uncovered.size()) uncovered.Clear(index);
      }
    }
    if (uncovered.Any()) {
      AbandonMaster(n);
      return;
    }
    for (std::size_t v : chosen) {
      n->applied_variants.push_back(v);
      if (AuditOn()) {
        AuditNegotiation("variant_applied", *n,
                         {{"variant", std::to_string(v)}});
      }
      for (const auto& [index, mapping] : master.variants[v].mappings) {
        // Cancel only the reservations the variant actually replaces.
        CancelHeld(n, index);
        if (AuditOn()) {
          AuditSlot("slot_remapped", *n, index, mapping.host,
                    {{"variant", std::to_string(v)}});
        }
        n->current[index] = mapping;
        n->attempts[index] = 0;  // new mapping, fresh retry budget
      }
    }
    n->next_variant = chosen.back() + 1;
    RequestMissing(n);
    return;
  }

  // Naive baseline: cancel everything, retry the next variant wholesale.
  for (std::size_t i = 0; i < n->tokens.size(); ++i) CancelHeld(n, i);
  if (n->next_variant >= master.variants.size()) {
    AbandonMaster(n);
    return;
  }
  const std::size_t v = n->next_variant++;
  n->applied_variants.push_back(v);
  if (AuditOn()) {
    AuditNegotiation("variant_applied", *n, {{"variant", std::to_string(v)}});
  }
  n->current = master.WithVariant(v);
  n->attempts.assign(n->current.size(), 0);
  RequestMissing(n);
}

void EnactorObject::AbandonMaster(const std::shared_ptr<Negotiation>& n) {
  // Per-mapping failure feedback: record which indices never secured a
  // token before the holds are cancelled below.
  n->last_failed_indices.clear();
  for (std::size_t i = 0; i < n->tokens.size(); ++i) {
    if (!n->tokens[i].has_value()) n->last_failed_indices.push_back(i);
  }
  if (AuditOn()) {
    AuditNegotiation(
        "master_abandoned", *n,
        {{"master", std::to_string(n->master)},
         {"unplaced", std::to_string(n->last_failed_indices.size())}});
  }
  for (std::size_t i = 0; i < n->tokens.size(); ++i) CancelHeld(n, i);
  ++n->master;
  StartMaster(n);
}

void EnactorObject::Succeed(const std::shared_ptr<Negotiation>& n) {
  n->finished = true;
  if (AuditOn()) {
    AuditNegotiation(
        "negotiation_success", *n,
        {{"master", std::to_string(n->master)},
         {"variants", std::to_string(n->applied_variants.size())}});
  }
  ScheduleFeedback feedback;
  feedback.original = std::move(n->request);
  feedback.success = true;
  feedback.negotiation_id = n->id;
  ScheduleChoice choice;
  choice.master_index = n->master;
  choice.variant_indices = n->applied_variants;
  feedback.winner = choice;
  feedback.reserved_mappings = std::move(n->current);
  feedback.tokens.reserve(n->tokens.size());
  for (const auto& token : n->tokens) feedback.tokens.push_back(*token);
  n->done(std::move(feedback));
}

void EnactorObject::Fail(const std::shared_ptr<Negotiation>& n) {
  n->finished = true;
  if (AuditOn()) {
    AuditNegotiation("negotiation_failed", *n,
                     {{"code", legion::ToString(n->last_code)}});
  }
  ScheduleFeedback feedback;
  feedback.original = std::move(n->request);
  feedback.success = false;
  feedback.negotiation_id = n->id;
  feedback.failure = n->last_code;
  feedback.failure_detail = n->last_error;
  // Which of the last master's mappings never held a token: the
  // scheduler's per-mapping signal for shrinking or re-aiming the next
  // attempt (and its mappings_unplaced metric).
  feedback.failed_indices = n->last_failed_indices;
  n->done(std::move(feedback));
}

void EnactorObject::CancelReservations(
    const std::vector<ReservationToken>& tokens, Callback<std::size_t> done) {
  if (tokens.empty()) {
    done(static_cast<std::size_t>(0));
    return;
  }
  // Batched release (DESIGN.md §11).  The counter counts tokens, not RPCs.
  cells_.reservations_cancelled->Add(tokens.size());
  struct CancelState {
    std::size_t outstanding = 0;
    std::size_t cancelled = 0;
    Callback<std::size_t> done;
  };
  auto state = std::make_shared<CancelState>();
  state->done = std::move(done);
  const std::size_t cap = std::max<std::size_t>(options_.max_batch_size, 1);
  // Grouping positions, not tokens, copies each token once: into its
  // chunk.
  std::vector<std::size_t> positions(tokens.size());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  const auto groups = GroupByHost(
      positions, [&tokens](std::size_t i) { return tokens[i].host; });
  for (const auto& [host, group] : groups) {
    state->outstanding += (group.size() + cap - 1) / cap;
  }
  for (const auto& [host, group] : groups) {
    for (std::size_t first = 0; first < group.size(); first += cap) {
      const std::size_t last = std::min(group.size(), first + cap);
      std::vector<ReservationToken> chunk;
      chunk.reserve(last - first);
      for (std::size_t k = first; k < last; ++k) {
        chunk.push_back(tokens[group[k]]);
      }
      const std::size_t request_bytes =
          kSmallMessage + chunk.size() * kBatchSlotMessage;
      CallOn<std::size_t, HostInterface>(
          kernel(), loid(), host, request_bytes, kSmallMessage,
          options_.rpc_timeout,
          [chunk = std::move(chunk)](HostInterface& host_iface,
                                     Callback<std::size_t> reply) {
            host_iface.CancelReservationBatch(chunk, std::move(reply));
          },
          [state](Result<std::size_t> released) {
            if (released.ok()) state->cancelled += *released;
            if (--state->outstanding == 0) state->done(state->cancelled);
          },
          "cancel_reservation_batch");
    }
  }
}

void EnactorObject::CancelReservations(const ScheduleFeedback& feedback,
                                       Callback<std::size_t> done) {
  CancelReservations(feedback.tokens, std::move(done));
}

void EnactorObject::EnactSchedule(const ScheduleFeedback& feedback,
                                  Callback<EnactResult> done) {
  cells_.enactments->Add();
  if (!feedback.success ||
      feedback.reserved_mappings.size() != feedback.tokens.size() ||
      feedback.reserved_mappings.empty()) {
    cells_.enact_failures->Add();
    EnactResult result;
    result.success = false;
    done(std::move(result));
    return;
  }
  // Steps 7-9: the Enactor attempts to instantiate the objects through
  // member function calls on the appropriate class objects.
  CreateInstances(kernel(), loid(), feedback.reserved_mappings, feedback.tokens,
                  options_.rpc_timeout,
                  [this, done = std::move(done)](
                      std::vector<Result<Loid>> instances) {
                    EnactResult result;
                    result.success = std::all_of(
                        instances.begin(), instances.end(),
                        [](const Result<Loid>& r) { return r.ok(); });
                    if (!result.success) cells_.enact_failures->Add();
                    result.instances = std::move(instances);
                    done(std::move(result));
                  });
}

}  // namespace legion
