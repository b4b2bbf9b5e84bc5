#include "resources/queue_system.h"

#include <algorithm>
#include <cassert>

namespace legion {

void QueueSystem::Submit(BatchJob job) {
  assert(job.id != 0);
  queue_.push_back(std::move(job));
}

bool QueueSystem::Withdraw(const Loid& instance) {
  auto holds_instance = [&instance](const BatchJob& job) {
    return std::find(job.instances.begin(), job.instances.end(), instance) !=
           job.instances.end();
  };
  // An instance belongs to one job at most.
  BatchJob* job = nullptr;
  for (BatchJob& queued : queue_) {
    if (holds_instance(queued)) job = &queued;
  }
  for (auto& [id, running] : running_) {
    if (holds_instance(running)) job = &running;
  }
  if (job == nullptr) return false;
  std::erase(job->instances, instance);
  if (job->instances.empty()) Cancel(job->id);
  return true;
}

void QueueSystem::Cancel(std::uint64_t job_id) {
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [job_id](const BatchJob& j) { return j.id == job_id; });
  if (it != queue_.end()) {
    queue_.erase(it);
  } else {
    running_.erase(job_id);
  }
}

void QueueSystem::CountLateReservations(SimTime now) {
  for (BatchJob& job : queue_) CountIfLate(job, now);
}

void QueueSystem::CountIfLate(BatchJob& job, SimTime now) {
  if (job.hold == 0 || job.late || now < job.window_end) return;
  job.late = true;
  ++reservation_conflicts_;
}

double QueueSystem::used_slots() const {
  double used = 0.0;
  for (const auto& [id, job] : running_) used += job.cpu_demand();
  return used;
}

Duration QueueSystem::EstimateWait(SimTime now) const {
  (void)now;
  // Crude but monotone: total queued work divided by slot count.
  double queued_cpu_time = 0.0;
  for (const auto& job : queue_) {
    queued_cpu_time += job.cpu_demand() * job.estimated_runtime.seconds();
  }
  return Duration::Seconds(queued_cpu_time / std::max(slots_, 1e-9));
}

void QueueSystem::StartJobAt(std::size_t index, SimTime now) {
  BatchJob job = queue_[index];
  job.started = now;
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  CountIfLate(job, now);
  running_[job.id] = job;
  // The callback gets its own copy: withdrawing one of the job's
  // instances from it changes the running job.
  if (on_start_) on_start_(job);
}

void QueueSystem::VacateJob(std::uint64_t job_id, SimTime now) {
  auto it = running_.find(job_id);
  if (it == running_.end()) return;
  BatchJob job = it->second;
  running_.erase(it);
  ++jobs_vacated_;
  job.submitted = now;  // re-enters the queue as a fresh submission
  if (on_vacate_) on_vacate_(job);
  queue_.push_front(std::move(job));
}

// ---- FIFO -------------------------------------------------------------------

void FifoQueue::Poll(SimTime now) {
  // Strict FCFS: stop at the first job that does not fit.
  while (!queue_.empty() &&
         used_slots() + queue_.front().cpu_demand() <= slots_ + 1e-9) {
    StartJobAt(0, now);
  }
}

// ---- Condor-like --------------------------------------------------------------

void CondorLikeQueue::Poll(SimTime now) {
  // Owner return: each running job is independently vacated with the
  // configured probability per scheduling cycle.
  std::vector<std::uint64_t> to_vacate;
  for (const auto& [id, job] : running_) {
    if (rng_.Bernoulli(owner_return_prob_)) to_vacate.push_back(id);
  }
  for (std::uint64_t id : to_vacate) VacateJob(id, now);
  FifoQueue::Poll(now);
}

// ---- LoadLeveler-like -----------------------------------------------------------

int LoadLevelerLikeQueue::ClassOf(const BatchJob& job) {
  // Shorter estimated runtime => higher class (larger number).
  if (job.estimated_runtime <= Duration::Minutes(15)) return 3;
  if (job.estimated_runtime <= Duration::Hours(1)) return 2;
  if (job.estimated_runtime <= Duration::Hours(4)) return 1;
  return 0;
}

void LoadLevelerLikeQueue::Poll(SimTime now) {
  while (!queue_.empty()) {
    // Pick the best (class + aging credit) job that fits.
    std::size_t best = queue_.size();
    double best_score = -1e18;
    const double free = slots_ - used_slots();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const BatchJob& job = queue_[i];
      if (job.cpu_demand() > free + 1e-9) continue;
      const double age_credit =
          (now - job.submitted).seconds() / kAgingInterval.seconds();
      const double score = static_cast<double>(ClassOf(job)) + age_credit;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == queue_.size()) break;
    StartJobAt(best, now);
  }
}

// ---- Maui-like --------------------------------------------------------------------

namespace {

// The CPU share of the holds covering `t`, summed in the order they come:
// grant order, which no hash layout of the host's table can change.
double ReservedIn(const QueueSystem::Holds& holds, SimTime t) {
  double reserved = 0.0;
  for (const ReservationRecord& hold : holds) {
    const ReservationToken& w = hold.token;
    if (t >= w.start && t < w.start + w.duration) reserved += hold.cpu_fraction;
  }
  return reserved;
}

}  // namespace

QueueSystem::Holds MauiLikeQueue::OpenHolds() const {
  Holds holds = holds_();
  for (const auto& [id, job] : running_) {
    if (job.hold == 0) continue;
    std::erase_if(holds, [&job](const ReservationRecord& hold) {
      return hold.token.serial == job.hold;
    });
  }
  return holds;
}

double MauiLikeQueue::ReservedAt(SimTime t) const {
  return ReservedIn(OpenHolds(), t);
}

bool MauiLikeQueue::CanHonorWindow(SimTime start, SimTime end, double cpus,
                                   SimTime now) const {
  // Capacity only changes at boundaries: the window start and the starts
  // of held windows inside it.  Running jobs release their slots at
  // started + estimated_runtime (a non-guess for reserved jobs, an
  // estimate for the rest -- the residual optimism is the "unavoidable
  // potential for conflict" the paper accepts).
  const Holds holds = OpenHolds();
  auto running_at = [&](SimTime t) {
    double used = 0.0;
    for (const auto& [id, job] : running_) {
      const SimTime finish = job.started + job.estimated_runtime;
      if (finish > t) used += job.cpu_demand();
    }
    return used;
  };
  auto fits_at = [&](SimTime t) {
    return running_at(t) + ReservedIn(holds, t) + cpus <= slots_ + 1e-9;
  };
  if (!fits_at(std::max(start, now))) return false;
  for (const ReservationRecord& hold : holds) {
    const SimTime t = hold.token.start;
    if (t > start && t < end && !fits_at(t)) return false;
  }
  return true;
}

bool MauiLikeQueue::FitsOutsideReservations(const Holds& holds, double demand,
                                            SimTime now, Duration run) const {
  const SimTime end = now + run;
  // Check the job's whole execution span at every hold boundary that
  // falls inside it (capacity only changes at boundaries).
  auto fits_at = [&](SimTime t) {
    return used_slots() + demand + ReservedIn(holds, t) <= slots_ + 1e-9;
  };
  if (!fits_at(now)) return false;
  for (const ReservationRecord& hold : holds) {
    const SimTime t = hold.token.start;
    if (t > now && t < end && !fits_at(t)) return false;
  }
  return true;
}

void MauiLikeQueue::Poll(SimTime now) {
  bool progressed = true;
  while (progressed && !queue_.empty()) {
    progressed = false;
    // A start may occupy a hold, so each pass reads the holds again.
    const Holds holds = OpenHolds();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const BatchJob& job = queue_[i];
      if (job.hold != 0) {
        // Reservation-backed job: runs inside its window, on the
        // capacity its hold set aside.
        if (now >= job.window_start && now < job.window_end &&
            used_slots() + job.cpu_demand() <= slots_ + 1e-9) {
          StartJobAt(i, now);
          progressed = true;
          break;
        }
        continue;  // window not open yet; backfill may pass this job
      }
      if (FitsOutsideReservations(holds, job.cpu_demand(), now,
                                  job.estimated_runtime)) {
        StartJobAt(i, now);
        progressed = true;
        break;
      }
    }
  }
}

}  // namespace legion
