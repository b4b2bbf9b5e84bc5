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
  // The queue's holds are the table's live records, minus those a
  // started job has spent: that job occupies real slots instead.
  queue_->SetHoldSource([this, kernel] {
    QueueSystem::Holds holds = table_.LiveRecords(kernel->Now());
    for (const auto& [id, pending] : pending_jobs_) {
      if (!pending.started) continue;
      std::erase_if(holds, [&](const ReservationRecord& hold) {
        return hold.token.serial == pending.reservation_serial;
      });
    }
    return holds;
  });
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
  // A reserved job still waiting after its window closed is a conflict
  // even if it never starts: the reservation was not honored.
  for (auto& [id, pending] : pending_jobs_) {
    if (pending.started || pending.conflict_counted) continue;
    if (pending.reservation_serial == 0) continue;
    const SimTime window_end =
        pending.request.token.start + pending.request.token.duration;
    if (now >= window_end) {
      pending.conflict_counted = true;
      ++reservation_conflicts_;
    }
  }
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
  if (reservation_serial != 0) {
    job.reserved = true;
    job.window_start = request.token.start;
    job.window_end = request.token.start + request.token.duration;
    if (request.token.duration > Duration::Zero()) {
      job.estimated_runtime = request.token.duration;
    }
  }
  PendingJob pending;
  pending.request = request;
  pending.reservation_serial = reservation_serial;
  pending_jobs_[job.id] = std::move(pending);
  for (const Loid& instance : request.instances) {
    instance_job_[instance] = job.id;
  }
  queue_->Submit(std::move(job));
  // An opportunistic scheduling cycle: idle machines start work at once.
  // The submission is the success the Class hears about; execution
  // follows queue discipline.
  queue_->Poll(kernel()->Now());
  RepopulateAttributes();
}

void BatchQueueHost::OnJobStart(const BatchJob& job) {
  auto it = pending_jobs_.find(job.id);
  if (it == pending_jobs_.end()) return;
  PendingJob& pending = it->second;
  pending.started = true;  // spends the job's hold

  if (job.reserved && kernel()->Now() >= job.window_end &&
      !pending.conflict_counted) {
    // The "unavoidable potential for conflict": the queue could not
    // honor the reserved window.
    pending.conflict_counted = true;
    ++reservation_conflicts_;
  }

  // The job's instances, demand and vault are the submitted request's;
  // only those still waiting start.
  ActivateCreated(pending.request);
  if (!Occupied(pending)) {
    DropJob(job.id);
    RepopulateAttributes();
  }
}

void BatchQueueHost::OnJobVacate(const BatchJob& job) {
  // The workstation owner returned (Condor-style): suspend the job's
  // objects in place.  They wait again, under the hold they ran under,
  // and resume when the queue restarts the job.
  for (const Loid& instance : job.instances) {
    auto running = running_.find(instance);
    if (running == running_.end()) continue;
    auto* object = dynamic_cast<LegionObject*>(kernel()->FindActor(instance));
    if (object != nullptr && object->active()) {
      (void)object->Deactivate();
    }
    waiting_[instance] = running->second.reservation_serial;
    running_.erase(running);
  }
  RepopulateAttributes();
}

void BatchQueueHost::OnDeparted(const Loid& object) {
  auto it = instance_job_.find(object);
  if (it == instance_job_.end()) return;
  const std::uint64_t job_id = it->second;
  instance_job_.erase(it);
  if (Occupied(pending_jobs_.at(job_id))) return;
  DropJob(job_id);
  // Freed slots may admit the next job immediately.
  queue_->Poll(kernel()->Now());
}

bool BatchQueueHost::Occupied(const PendingJob& pending) const {
  return std::any_of(pending.request.instances.begin(),
                     pending.request.instances.end(),
                     [this](const Loid& instance) {
                       return running_.contains(instance) ||
                              waiting_.contains(instance);
                     });
}

void BatchQueueHost::DropJob(std::uint64_t job_id) {
  auto it = pending_jobs_.find(job_id);
  queue_->Cancel(job_id);
  for (const Loid& instance : it->second.request.instances) {
    instance_job_.erase(instance);
  }
  pending_jobs_.erase(it);
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
