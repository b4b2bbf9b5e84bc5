#include "core/enactor.h"

#include <algorithm>
#include <unordered_map>

#include "objects/class_object.h"

namespace legion {

namespace {
constexpr std::uint64_t kServiceClassSerial = 5;
// Every reservation the Enactor requests is an instantaneous (starting
// now) one-shot timesharing window of this length.
constexpr Duration kReservationDuration = Duration::Hours(1);
}  // namespace

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
  std::size_t outstanding = 0;
  ErrorCode last_code = ErrorCode::kNoResources;
  std::string last_error;
  bool finished = false;
  // When one host's group splits into several chunks, the trailing
  // chunks wait here for the leading chunk's reply: a smaller trailing
  // chunk is a smaller message and would otherwise overtake the bigger
  // one on the wire, making the host admit the round's slots out of
  // mapping order (and so decide differently than cap 1 would).
  // Their slots stay counted in `outstanding`, so the round cannot
  // complete under them.
  std::vector<std::pair<Loid, std::deque<std::vector<std::size_t>>>>
      chunk_queues;
  // The failure set of the last abandoned master (per-mapping feedback
  // for the scheduler), captured before AbandonMaster cancels the holds.
  std::vector<std::size_t> last_failed_indices;

  void QueueChunk(const Loid& host, std::vector<std::size_t> indices) {
    for (auto& [queued_host, chunks] : chunk_queues) {
      if (queued_host == host) {
        chunks.push_back(std::move(indices));
        return;
      }
    }
    chunk_queues.emplace_back(
        host, std::deque<std::vector<std::size_t>>{std::move(indices)});
  }

  std::optional<std::vector<std::size_t>> PopChunk(const Loid& host) {
    for (auto it = chunk_queues.begin(); it != chunk_queues.end(); ++it) {
      if (it->first != host) continue;
      std::vector<std::size_t> indices = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) chunk_queues.erase(it);
      return indices;
    }
    return std::nullopt;
  }
};

EnactorObject::EnactorObject(SimKernel* kernel, Loid loid,
                             EnactorOptions options)
    : LegionObject(kernel, loid,
                   Loid(LoidSpace::kClass, loid.domain(), kServiceClassSerial)),
      options_(options),
      health_(kernel, options.health),
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
    Audit("negotiation_begin",
          {{"nid", std::to_string(n->id)},
           {"masters", std::to_string(request.masters.size())}});
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
    Audit("master_start",
          {{"nid", std::to_string(n->id)},
           {"master", std::to_string(n->master)},
           {"mappings", std::to_string(master.mappings.size())},
           {"variants", std::to_string(master.variants.size())}});
  }
  n->current = master.mappings;
  n->tokens.assign(master.mappings.size(), std::nullopt);
  n->cancelled_history.assign(master.mappings.size(), {});
  n->attempts.assign(master.mappings.size(), 0);
  n->applied_variants.clear();
  n->next_variant = 0;
  n->chunk_queues.clear();
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
  // host, preserving mapping order within each group (the order the
  // host's table admits slots in), and chunk each group at the cap.
  // Open breakers still fail per index -- batching never widens the
  // granularity of the health machinery.
  std::vector<std::pair<Loid, std::vector<std::size_t>>> groups;
  for (std::size_t index : missing) {
    const Loid& host = n->current[index].host;
    if (options_.use_health && !health_.Healthy(host)) {
      FailIndexFast(n, index);
      continue;
    }
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&host](const auto& group) { return group.first == host; });
    if (it == groups.end()) {
      groups.emplace_back(host, std::vector<std::size_t>{index});
    } else {
      it->second.push_back(index);
    }
  }
  for (auto& [host, indices] : groups) {
    // Chunks after the first wait for their predecessor's reply
    // (DispatchNextChunk) so the host admits this round's slots in
    // mapping order even when the chunks differ in wire size.
    for (std::size_t begin = options_.max_batch_size; begin < indices.size();
         begin += options_.max_batch_size) {
      const std::size_t end =
          std::min(begin + options_.max_batch_size, indices.size());
      n->QueueChunk(host, std::vector<std::size_t>(indices.begin() + begin,
                                                   indices.begin() + end));
    }
    indices.resize(std::min(indices.size(), options_.max_batch_size));
    EnqueueBatch(n, host, std::move(indices));
  }
}

// The in-order successor of a chunk whose fate is settled: sent once the
// predecessor's reply (or breaker fast-fail) has been processed.
void EnactorObject::DispatchNextChunk(const std::shared_ptr<Negotiation>& n,
                                      const Loid& host) {
  if (n->finished) return;
  if (auto indices = n->PopChunk(host)) {
    EnqueueBatch(n, host, std::move(*indices));
  }
}

void EnactorObject::EnqueueBatch(const std::shared_ptr<Negotiation>& n,
                                 const Loid& host,
                                 std::vector<std::size_t> indices) {
  Batch batch;
  batch.negotiation = n;
  batch.host = host;
  batch.indices = std::move(indices);
  batch.wanted = batch.indices;
  // At-most-once id, minted once per batch: retransmissions reuse the
  // whole Batch (OnBatchReply's retry path), never pass through here.
  batch.id = next_batch_id_++;
  DispatchBatch(std::move(batch));
}

void EnactorObject::DispatchBatch(Batch batch) {
  if (options_.max_outstanding_batches > 0 &&
      outstanding_batches_ >= options_.max_outstanding_batches) {
    // Backpressure: park instead of flooding the event queue; the slots
    // stay accounted in the negotiation's outstanding set.
    cells_.requests_parked->Add(batch.wanted.size());
    if (kernel()->trace().enabled()) {
      kernel()->trace().Instant(
          kernel()->Now(), "batch_parked", "enactor",
          kernel()->trace().current(),
          {{"host", batch.host.ToString()},
           {"slots", std::to_string(batch.wanted.size())}});
    }
    if (AuditOn()) {
      const std::string nid = std::to_string(batch.negotiation->id);
      const std::string host = batch.host.ToString();
      for (std::size_t index : batch.wanted) {
        Audit("reserve_parked", {{"nid", nid},
                                 {"slot", std::to_string(index)},
                                 {"host", host}});
      }
    }
    parked_.push_back(std::move(batch));
    return;
  }
  SendBatch(std::move(batch));
}

void EnactorObject::PumpParked() {
  while (!parked_.empty() &&
         (options_.max_outstanding_batches == 0 ||
          outstanding_batches_ < options_.max_outstanding_batches)) {
    Batch batch = std::move(parked_.front());
    parked_.pop_front();
    SendBatch(std::move(batch));
  }
}

void EnactorObject::SendBatch(Batch batch) {
  const std::shared_ptr<Negotiation>& n = batch.negotiation;
  if (n->finished) return;  // parked past its negotiation's end
  // The breaker may have opened while the batch waited for a slot.
  if (options_.use_health && !health_.Healthy(batch.host)) {
    for (std::size_t index : batch.wanted) FailIndexFast(n, index);
    DispatchNextChunk(n, batch.host);  // no reply will come to trigger it
    return;
  }
  if (options_.use_health && health_.IsProbe(batch.host)) {
    cells_.breaker_probes->Add();
  }
  for (std::size_t index : batch.wanted) CountAttempt(*n, index, batch.id);

  // Freeze the wire payload on first send.  A retransmission reuses it
  // verbatim -- same id, same full slot set -- so the host can dedup by
  // id no matter which subset of slots is still wanted, and the message
  // costs the same bytes both times.
  if (batch.request == nullptr) {
    auto request = std::make_shared<ReservationBatchRequest>();
    request->requester = loid();
    request->batch_id = batch.id;
    request->slots.reserve(batch.indices.size());
    for (std::size_t index : batch.indices) {
      request->slots.push_back(BatchSlotRequest{index, SlotRequest(*n, index)});
    }
    batch.request = std::move(request);
  }
  ReservationBatchRequest request = *batch.request;
  request.retransmit = batch.retransmit;

  ++outstanding_batches_;
  cells_.batches_sent->Add();
  cells_.batched_slots->Add(batch.indices.size());
  cells_.batch_size->Observe(static_cast<double>(batch.indices.size()));
  if (kernel()->trace().enabled()) {
    kernel()->trace().Instant(
        kernel()->Now(), "reserve_batch", "enactor",
        kernel()->trace().current(),
        {{"host", batch.host.ToString()},
         {"slots", std::to_string(batch.indices.size())}});
  }
  // Size-cost the RPC on the wire: one envelope plus a marginal cost per
  // slot, both ways, so NetworkModel charges real transfer time.
  const std::size_t request_bytes =
      kSmallMessage + request.slots.size() * kBatchSlotMessage;
  const std::size_t reply_bytes =
      kSmallMessage + request.slots.size() * kBatchSlotReplyMessage;
  const Loid host = batch.host;
  CallOn<ReservationBatchReply, HostInterface>(
      kernel(), loid(), host, request_bytes, reply_bytes,
      options_.rpc_timeout,
      [request](HostInterface& host_iface,
                Callback<ReservationBatchReply> reply) {
        host_iface.MakeReservationBatch(request, std::move(reply));
      },
      [this, batch = std::move(batch)](Result<ReservationBatchReply> result) {
        OnBatchReply(batch, std::move(result));
      },
      "reserve_batch");
}

void EnactorObject::OnBatchReply(const Batch& batch,
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
    // The host answered: per-slot outcomes, per-slot health bookkeeping.
    // Only the wanted slots feed the negotiation; the rest of the wire
    // set (slots abandoned between transmissions) is settled already.
    std::unordered_map<std::size_t, const BatchSlotOutcome*> by_index;
    for (const BatchSlotOutcome& outcome : result->outcomes) {
      by_index[outcome.index] = &outcome;
    }
    for (std::size_t index : batch.wanted) {
      ++completed;
      auto it = by_index.find(index);
      if (it == by_index.end()) {
        ApplySlotAnswer(*n, target,
                        {index,
                         Status::Error(ErrorCode::kInternal,
                                       "batch reply missing slot " +
                                           std::to_string(index)),
                         {}});
        continue;
      }
      ApplySlotAnswer(*n, target, *it->second);
    }
    // A retransmission may carry slots the negotiation abandoned after
    // the original send (retry budget exhausted, possibly re-aimed by a
    // variant since).  A grant for such a slot is a stray hold nobody
    // will redeem: release it instead of letting it pin capacity until
    // expiry.
    if (batch.wanted.size() != batch.indices.size()) {
      for (std::size_t index : batch.indices) {
        if (std::find(batch.wanted.begin(), batch.wanted.end(), index) !=
            batch.wanted.end()) {
          continue;
        }
        auto it = by_index.find(index);
        if (it != by_index.end() && it->second->status.ok()) {
          cells_.reservations_cancelled->Add();
          if (AuditOn()) {
            Audit("stray_grant_cancelled",
                  {{"nid", std::to_string(n->id)},
                   {"slot", std::to_string(index)},
                   {"host", target.ToString()}});
          }
          CancelToken(it->second->token);
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
      int attempt = 0;
      for (std::size_t index : retryable) {
        attempt = std::max(attempt, n->attempts[index]);
      }
      const Duration delay = BackoffDelay(attempt);
      if (kernel()->trace().enabled()) {
        kernel()->trace().Instant(
            kernel()->Now(), "batch_retry", "enactor",
            kernel()->trace().current(),
            {{"host", target.ToString()},
             {"slots", std::to_string(retryable.size())},
             {"delay", delay.ToString()}});
      }
      Batch retry = batch;
      retry.wanted = std::move(retryable);
      retry.retransmit = true;
      kernel()->ScheduleAfter(
          delay,
          [this, retry = std::move(retry)] {
            if (retry.negotiation->finished) return;
            DispatchBatch(retry);
          },
          "enactor/backoff");
    }
  }

  // This chunk's fate is settled (every wanted slot granted, failed, or
  // owned by a scheduled retransmission that will re-enter here);
  // release the host's next in-order chunk, if any.  Retransmissions
  // keep their successor waiting so the host still sees the round in
  // mapping order.
  if (result.ok() || completed == batch.wanted.size()) {
    DispatchNextChunk(n, target);
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
  if (kernel()->trace().enabled()) {
    kernel()->trace().Instant(kernel()->Now(), "breaker_fastfail", "enactor",
                              kernel()->trace().current(),
                              {{"host", n->current[index].host.ToString()},
                               {"index", std::to_string(index)}});
  }
  if (AuditOn()) {
    Audit("breaker_fastfail",
          {{"nid", std::to_string(n->id)},
           {"slot", std::to_string(index)},
           {"host", n->current[index].host.ToString()}});
  }
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
// and the batch counters.  Replies settle through the same per-slot code
// as a batch reply.
void EnactorObject::ReserveIndex(const std::shared_ptr<Negotiation>& n,
                                 std::size_t index) {
  const Loid host = n->current[index].host;
  if (options_.use_health && !health_.Healthy(host)) {
    FailIndexFast(n, index);
    return;
  }
  if (options_.use_health && health_.IsProbe(host)) {
    cells_.breaker_probes->Add();
  }
  CountAttempt(*n, index, /*batch_id=*/0);
  CallOn<ReservationToken, HostInterface>(
      kernel(), loid(), host, kSmallMessage, kSmallMessage,
      options_.rpc_timeout,
      [request = SlotRequest(*n, index)](HostInterface& host_iface,
                                         Callback<ReservationToken> reply) {
        host_iface.MakeReservation(request, std::move(reply));
      },
      [this, n, index, host](Result<ReservationToken> result) {
        if (n->finished) return;
        const ErrorCode code = result.code();
        if (code != ErrorCode::kTimeout && code != ErrorCode::kUnavailable) {
          // The host answered: a grant or its own refusal.
          ApplySlotAnswer(*n, host,
                          {index, result.status(), result.value_or({})});
        } else if (ApplyRpcFailure(*n, index, host, result.status())) {
          const Duration delay = BackoffDelay(n->attempts[index]);
          if (kernel()->trace().enabled()) {
            kernel()->trace().Instant(
                kernel()->Now(), "reserve_retry", "enactor",
                kernel()->trace().current(),
                {{"host", host.ToString()},
                 {"index", std::to_string(index)},
                 {"attempt", std::to_string(n->attempts[index] + 1)},
                 {"delay", delay.ToString()}});
          }
          kernel()->ScheduleAfter(
              delay,
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
    if (kernel()->trace().enabled()) {
      kernel()->trace().Instant(kernel()->Now(), "rereservation", "enactor",
                                kernel()->trace().current(),
                                {{"host", mapping.host.ToString()},
                                 {"index", std::to_string(index)}});
    }
  }
  cells_.reservations_requested->Add();
  if (AuditOn()) {
    obs::TraceArgs fields = {{"nid", std::to_string(n.id)},
                             {"slot", std::to_string(index)},
                             {"host", mapping.host.ToString()}};
    if (batch_id != 0) fields.push_back({"batch", std::to_string(batch_id)});
    fields.push_back({"attempt", std::to_string(n.attempts[index] + 1)});
    Audit("reserve_requested", std::move(fields));
  }
}

ReservationRequest EnactorObject::SlotRequest(const Negotiation& n,
                                              std::size_t index) const {
  const ObjectMapping& mapping = n.current[index];
  ReservationRequest request;
  request.vault = mapping.vault;
  request.start = kernel()->Now();
  request.duration = kReservationDuration;
  request.confirm_timeout = options_.confirm_timeout;
  request.type = ReservationType::OneShotTimesharing();
  request.requester = loid();
  request.requester_domain = loid().domain();
  // Per-class instantiation demand, resolved from the local class object
  // (the Enactor caches this knowledge between calls in the real system).
  request.memory_mb = 32;
  request.cpu_fraction = 1.0;
  auto* klass =
      dynamic_cast<ClassObject*>(kernel()->FindActor(mapping.class_loid));
  if (klass != nullptr) {
    request.memory_mb = klass->instance_memory_mb();
    request.cpu_fraction = klass->instance_cpu_fraction();
  }
  return request;
}

void EnactorObject::ApplySlotAnswer(Negotiation& n, const Loid& host,
                                    const BatchSlotOutcome& outcome) {
  const std::size_t index = outcome.index;
  if (AuditOn()) {
    if (outcome.status.ok()) {
      Audit("reserve_granted", {{"nid", std::to_string(n.id)},
                                {"slot", std::to_string(index)},
                                {"host", host.ToString()}});
    } else {
      Audit("reserve_failed",
            {{"nid", std::to_string(n.id)},
             {"slot", std::to_string(index)},
             {"host", host.ToString()},
             {"code", legion::ToString(outcome.status.code())}});
    }
  }
  if (outcome.status.ok()) {
    if (options_.use_health) health_.RecordSuccess(host);
    cells_.reservations_granted->Add();
    if (n.attempts[index] > 0) cells_.partial_recoveries->Add();
    n.tokens[index] = outcome.token;
  } else {
    // Slot-level refusals and capacity shortfalls are the host's
    // prerogative, not sickness -- no health signal, no retry; the
    // variant machinery takes over per mapping.
    cells_.reservations_failed->Add();
    n.last_code = outcome.status.code();
    n.last_error = outcome.status.message();
  }
  if (kernel()->trace().enabled()) {
    kernel()->trace().Instant(
        kernel()->Now(), outcome.status.ok() ? "reserve_ok" : "reserve_fail",
        "enactor", kernel()->trace().current(),
        {{"host", host.ToString()}, {"index", std::to_string(index)}});
  }
}

bool EnactorObject::ApplyRpcFailure(Negotiation& n, std::size_t index,
                                    const Loid& host, const Status& status) {
  const ErrorCode code = status.code();
  // Unreachability is a health signal.
  if (options_.use_health &&
      (code == ErrorCode::kTimeout || code == ErrorCode::kUnavailable)) {
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
      (!options_.use_health || health_.Healthy(host))) {
    ++n.attempts[index];
    cells_.retries->Add();
    if (AuditOn()) {
      Audit("reserve_retry",
            {{"nid", std::to_string(n.id)},
             {"slot", std::to_string(index)},
             {"host", host.ToString()},
             {"attempt", std::to_string(n.attempts[index] + 1)}});
    }
    return true;
  }
  if (AuditOn()) {
    Audit("reserve_failed", {{"nid", std::to_string(n.id)},
                             {"slot", std::to_string(index)},
                             {"host", host.ToString()},
                             {"code", legion::ToString(code)}});
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
  if (AuditOn()) {
    Audit("reservation_cancelled",
          {{"nid", std::to_string(n->id)},
           {"slot", std::to_string(index)},
           {"host", n->current[index].host.ToString()}});
  }
  CancelToken(token);
}

void EnactorObject::CancelToken(const ReservationToken& token) {
  CallOn<bool, HostInterface>(
      kernel(), loid(), token.host, kSmallMessage, kSmallMessage,
      options_.rpc_timeout,
      [token](HostInterface& host, Callback<bool> reply) {
        host.CancelReservation(token, std::move(reply));
      },
      [](Result<bool>) { /* best effort */ }, "cancel_reservation");
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
      if (kernel()->trace().enabled()) {
        kernel()->trace().Instant(kernel()->Now(), "variant_applied",
                                  "enactor", kernel()->trace().current(),
                                  {{"variant", std::to_string(v)}});
      }
      if (AuditOn()) {
        Audit("variant_applied", {{"nid", std::to_string(n->id)},
                                  {"variant", std::to_string(v)}});
      }
      for (const auto& [index, mapping] : master.variants[v].mappings) {
        // Cancel only the reservations the variant actually replaces.
        CancelHeld(n, index);
        if (AuditOn()) {
          Audit("slot_remapped", {{"nid", std::to_string(n->id)},
                                  {"slot", std::to_string(index)},
                                  {"host", mapping.host.ToString()},
                                  {"variant", std::to_string(v)}});
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
    Audit("variant_applied", {{"nid", std::to_string(n->id)},
                              {"variant", std::to_string(v)}});
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
    Audit("master_abandoned",
          {{"nid", std::to_string(n->id)},
           {"master", std::to_string(n->master)},
           {"unplaced", std::to_string(n->last_failed_indices.size())}});
  }
  for (std::size_t i = 0; i < n->tokens.size(); ++i) CancelHeld(n, i);
  ++n->master;
  StartMaster(n);
}

void EnactorObject::Succeed(const std::shared_ptr<Negotiation>& n) {
  n->finished = true;
  if (AuditOn()) {
    Audit("negotiation_success",
          {{"nid", std::to_string(n->id)},
           {"master", std::to_string(n->master)},
           {"variants", std::to_string(n->applied_variants.size())}});
  }
  ScheduleFeedback feedback;
  feedback.original = n->request;
  feedback.success = true;
  feedback.negotiation_id = n->id;
  ScheduleChoice choice;
  choice.master_index = n->master;
  choice.variant_indices = n->applied_variants;
  feedback.winner = choice;
  feedback.reserved_mappings = n->current;
  feedback.tokens.reserve(n->tokens.size());
  for (const auto& token : n->tokens) feedback.tokens.push_back(*token);
  n->done(std::move(feedback));
}

void EnactorObject::Fail(const std::shared_ptr<Negotiation>& n) {
  n->finished = true;
  if (AuditOn()) {
    Audit("negotiation_failed",
          {{"nid", std::to_string(n->id)},
           {"code", legion::ToString(n->last_code)}});
  }
  ScheduleFeedback feedback;
  feedback.original = n->request;
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
  struct CancelState {
    std::size_t outstanding;
    std::size_t cancelled = 0;
    Callback<std::size_t> done;
  };
  auto state = std::make_shared<CancelState>();
  state->outstanding = tokens.size();
  state->done = std::move(done);
  for (const ReservationToken& token : tokens) {
    cells_.reservations_cancelled->Add();
    CallOn<bool, HostInterface>(
        kernel(), loid(), token.host, kSmallMessage, kSmallMessage,
        options_.rpc_timeout,
        [token](HostInterface& host, Callback<bool> reply) {
          host.CancelReservation(token, std::move(reply));
        },
        [state](Result<bool> r) {
          if (r.ok() && *r) ++state->cancelled;
          if (--state->outstanding == 0) state->done(state->cancelled);
        },
        "cancel_reservation");
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
  struct EnactState {
    std::size_t outstanding;
    std::vector<Result<Loid>> instances;
    Callback<EnactResult> done;
  };
  auto state = std::make_shared<EnactState>(EnactState{
      feedback.reserved_mappings.size(),
      std::vector<Result<Loid>>(),
      std::move(done)});
  state->instances.reserve(feedback.reserved_mappings.size());
  for (std::size_t i = 0; i < feedback.reserved_mappings.size(); ++i) {
    state->instances.emplace_back(
        Status::Error(ErrorCode::kInternal, "pending"));
  }

  for (std::size_t i = 0; i < feedback.reserved_mappings.size(); ++i) {
    const ObjectMapping& mapping = feedback.reserved_mappings[i];
    PlacementSuggestion suggestion;
    suggestion.host = mapping.host;
    suggestion.vault = mapping.vault;
    suggestion.token = feedback.tokens[i];
    suggestion.implementation = mapping.implementation;
    // Steps 7-9: the Enactor attempts to instantiate the objects through
    // member function calls on the appropriate class objects.
    CallOn<Loid, ClassInterface>(
        kernel(), loid(), mapping.class_loid, kSmallMessage, kSmallMessage,
        options_.rpc_timeout,
        [suggestion](ClassInterface& klass, Callback<Loid> reply) {
          klass.CreateInstance(suggestion, std::move(reply));
        },
        [this, state, i](Result<Loid> instance) {
          state->instances[i] = std::move(instance);
          if (--state->outstanding == 0) {
            EnactResult result;
            result.success =
                std::all_of(state->instances.begin(), state->instances.end(),
                            [](const Result<Loid>& r) { return r.ok(); });
            if (!result.success) cells_.enact_failures->Add();
            result.instances = std::move(state->instances);
            state->done(std::move(result));
          }
        },
        "create_instance");
  }
}

}  // namespace legion
