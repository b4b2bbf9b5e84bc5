#include "resources/batch_queue_host.h"

#include <algorithm>

namespace legion {

BatchQueueHost::BatchQueueHost(SimKernel* kernel, Loid loid, HostSpec spec,
                               std::uint64_t secret_seed,
                               std::unique_ptr<QueueSystem> queue,
                               Duration poll_period)
    : HostObject(kernel, loid, std::move(spec), secret_seed),
      queue_(std::move(queue)),
      poll_period_(poll_period) {
  queue_->SetCallbacks([this](const BatchJob& job) { OnJobStart(job); },
                       [this](const BatchJob& job) { OnJobVacate(job); });
  queue_->SetHoldSource(
      [this, kernel] { return table_.LiveRecords(kernel->Now()); });
  RepopulateAttributes();
}

BatchQueueHost::~BatchQueueHost() { StopQueuePolling(); }

void BatchQueueHost::StartQueuePolling() {
  if (poll_timer_ != 0) return;
  poll_timer_ = kernel()->SchedulePeriodic(poll_period_, [this] { OnPoll(); });
}

void BatchQueueHost::StopQueuePolling() {
  if (poll_timer_ == 0) return;
  kernel()->CancelPeriodic(poll_timer_);
  poll_timer_ = 0;
}

void BatchQueueHost::OnPoll() {
  const SimTime now = kernel()->Now();
  queue_->Poll(now);
  queue_->CountLateReservations(now);
  RepopulateAttributes();
}

// ---- Reservation pass-through ------------------------------------------------

Status BatchQueueHost::PreAdmitSlot(const ReservationRequest& request,
                                    SimTime now) {
  // A reservation-aware queue gets a veto: unlike the Unix-style host
  // table, it also knows about running and queued jobs, so it can refuse
  // windows it could not honor.
  const SimTime start = std::max(request.start, now);
  if (!queue_->CanHonorWindow(start, start + request.duration,
                              request.cpu_fraction, now)) {
    return Status::Error(ErrorCode::kNoResources,
                         "queue cannot guarantee the window");
  }
  return Status::Ok();
}

// ---- Submission ------------------------------------------------------------------

Status BatchQueueHost::AdmitWithoutReservation(
    const StartObjectRequest& request) {
  // Batch systems accept any structurally valid submission; waiting is
  // the queue's job.  The local policy still gets a say, over the job's
  // estimated runtime.
  Status permit = PermitWithoutReservation(
      request.class_loid, request.vault, request.memory_mb,
      request.cpu_fraction, request.estimated_runtime);
  if (!permit.ok()) return permit;
  if (request.memory_mb > spec_.memory_mb) {
    return Status::Error(ErrorCode::kNoResources,
                         "per-instance memory exceeds machine memory");
  }
  return Status::Ok();
}

void BatchQueueHost::Place(const StartObjectRequest& request,
                           std::uint64_t reservation_serial) {
  BatchJob job;
  job.id = next_job_id_++;
  job.instances = request.instances;
  job.memory_mb = request.memory_mb;
  job.cpu_fraction = request.cpu_fraction;
  job.estimated_runtime = request.estimated_runtime;
  job.submitted = kernel()->Now();
  job.hold = reservation_serial;
  if (reservation_serial != 0) {
    job.window_start = request.token.start;
    job.window_end = request.token.start + request.token.duration;
    if (request.token.duration > Duration::Zero()) {
      job.estimated_runtime = request.token.duration;
    }
  }
  queue_->Submit(std::move(job));
  // An opportunistic scheduling cycle: idle machines start work at once.
  // The submission is the success the Class hears about; execution
  // follows queue discipline.
  queue_->Poll(kernel()->Now());
  RepopulateAttributes();
}

void BatchQueueHost::OnJobStart(const BatchJob& job) {
  ActivateCreated(job.instances);
  // An instance that did not start no longer waited: it is leaving with
  // its released hold, and it leaves the job now.
  for (const Loid& instance : job.instances) {
    if (!running_.contains(instance)) queue_->Withdraw(instance);
  }
}

void BatchQueueHost::OnJobVacate(const BatchJob& job) {
  // The workstation owner returned (Condor-style): suspend the job's
  // objects in place.  Their records move back to the waiting set, hold
  // included, and they resume when the queue restarts the job.
  for (const Loid& instance : job.instances) {
    auto running = running_.find(instance);
    if (running == running_.end()) continue;
    auto* object = dynamic_cast<LegionObject*>(kernel()->FindActor(instance));
    if (object != nullptr && object->active()) {
      (void)object->Deactivate();
    }
    waiting_[instance] = running->second;
    running_.erase(running);
  }
  RepopulateAttributes();
}

void BatchQueueHost::OnDeparted(const Loid& object) {
  if (!queue_->Withdraw(object)) return;
  // The job shrank or left: freed slots may admit the next job at once.
  queue_->Poll(kernel()->Now());
}

void BatchQueueHost::ExtendAttributes(AttributeDatabase& attrs) {
  attrs.Set("queue_flavor", queue_->flavor());
  attrs.Set("queue_length", static_cast<std::int64_t>(queue_->queued_count()));
  attrs.Set("queue_running",
            static_cast<std::int64_t>(queue_->running_count()));
  attrs.Set("queue_wait_estimate_s",
            queue_->EstimateWait(kernel()->Now()).seconds());
  attrs.Set("native_reservations", queue_->SupportsReservations());
}

}  // namespace legion
