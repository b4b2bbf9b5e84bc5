// Simulated queue management systems.
//
// The paper integrates machines fronted by queue managers through
// specialized Host Objects: "We have Batch Queue Host implementations for
// Unix machines, LoadLeveler, and Codine", Condor integration was in
// progress, and "a Batch Queue Host for a system that does support
// reservations, such as the Maui Scheduler, could ... pass the job of
// managing reservations through to the queuing system."
//
// These models capture the scheduler-visible behaviour of each system:
//   * FifoQueue        -- plain FCFS slots (Codine-like default);
//   * CondorLikeQueue  -- cycle stealing: running jobs are vacated and
//                         requeued when the workstation owner returns;
//   * LoadLevelerLikeQueue -- job classes: short jobs outrank long ones,
//                         with aging so long jobs eventually run;
//   * MauiLikeQueue    -- native advance reservations: the queue reads
//                         the host's live holds at every decision, leaves
//                         out those its running jobs occupy, and never
//                         lets a backfilled job trample a held window.
//                         The host's reservation table stays the one
//                         ledger of holds; the queue keeps no copy.
//
// A BatchQueueHost submits one job per StartObject and hears through the
// callbacks when a job starts or is vacated.  The queue's BatchJob is the
// only record of a batch job: the host withdraws each instance that
// leaves (finished, killed, deactivated or withdrawn with its hold), so a
// job's demand is always that of the instances still on the host, and a
// job with none left is dropped, queued or running.  The queue also
// counts the reserved jobs it could not start inside their window.
//
// None of these is a faithful re-implementation of the named product;
// each reproduces the property the Legion RMI depends on (see DESIGN.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/loid.h"
#include "base/rng.h"
#include "base/sim_time.h"
#include "resources/reservation.h"

namespace legion {

struct BatchJob {
  std::uint64_t id = 0;
  std::vector<Loid> instances;
  std::size_t memory_mb = 0;     // per instance
  double cpu_fraction = 1.0;     // per instance
  Duration estimated_runtime = Duration::Minutes(30);
  SimTime submitted;
  // Reservation-backed jobs: the serial of the hold the job runs under
  // (0 = none) and the window it must run in.
  std::uint64_t hold = 0;
  SimTime window_start;
  SimTime window_end;
  // Set by the queue once it counts the job as a reservation conflict.
  bool late = false;
  // Set by the queue when the job starts executing.
  SimTime started;

  double cpu_demand() const {
    return cpu_fraction * static_cast<double>(instances.size());
  }
};

class QueueSystem {
 public:
  explicit QueueSystem(double cpu_slots) : slots_(cpu_slots) {}
  virtual ~QueueSystem() = default;

  using JobCallback = std::function<void(const BatchJob&)>;
  // `on_start` fires when a job begins executing; `on_vacate` when a
  // running job is preempted and requeued (Condor-style).
  void SetCallbacks(JobCallback on_start, JobCallback on_vacate) {
    on_start_ = std::move(on_start);
    on_vacate_ = std::move(on_vacate);
  }

  // The host's live holds in grant order.  A reservation-aware queue
  // reads them afresh at each decision and keeps no copy; the other
  // queues never read them.
  using Holds = std::vector<ReservationRecord>;
  using HoldSource = std::function<Holds()>;
  void SetHoldSource(HoldSource holds) { holds_ = std::move(holds); }

  void Submit(BatchJob job);
  // Takes `instance` out of its job, queued or running, and drops the job
  // once none of its instances is left; the slots a running job frees go
  // to the next Poll.  False if no job holds the instance.
  bool Withdraw(const Loid& instance);
  // One scheduling cycle: start whatever the discipline allows.
  virtual void Poll(SimTime now) = 0;
  // Counts each reserved job still queued once its window has closed:
  // the reservation was not honored even if the job never starts.
  void CountLateReservations(SimTime now);

  std::size_t queued_count() const { return queue_.size(); }
  std::size_t running_count() const { return running_.size(); }
  double used_slots() const;
  double slots() const { return slots_; }

  // Rough FCFS wait estimate exported in host attributes.
  Duration EstimateWait(SimTime now) const;

  virtual std::string flavor() const = 0;

  // Native reservation support (Maui-like only).  Queues without it have
  // no opinion on a window (the host's table decides alone), so this
  // defaults to accepting.
  virtual bool SupportsReservations() const { return false; }
  // Whether a new window could be guaranteed.
  virtual bool CanHonorWindow(SimTime start, SimTime end, double cpus,
                              SimTime now) const {
    (void)start; (void)end; (void)cpus; (void)now;
    return true;
  }

  std::uint64_t jobs_vacated() const { return jobs_vacated_; }
  // Reserved jobs the queue started at or after their window's end, or
  // still held queued then: the paper's "unavoidable potential for
  // conflict".  Each job counts once.
  std::uint64_t reservation_conflicts() const { return reservation_conflicts_; }

 protected:
  // Moves the job at queue index `i` to running, counts it if it starts
  // late for its window, and fires on_start.
  void StartJobAt(std::size_t index, SimTime now);
  void VacateJob(std::uint64_t job_id, SimTime now);

  double slots_;
  std::deque<BatchJob> queue_;
  std::map<std::uint64_t, BatchJob> running_;
  JobCallback on_start_;
  JobCallback on_vacate_;
  HoldSource holds_ = [] { return Holds{}; };
  std::uint64_t jobs_vacated_ = 0;

 private:
  // Drops a job, queued or running.
  void Cancel(std::uint64_t job_id);
  // Counts a reserved job once, the first time it is seen at or after
  // its window's end.
  void CountIfLate(BatchJob& job, SimTime now);

  std::uint64_t reservation_conflicts_ = 0;
};

// FCFS over CPU slots; the paper's generic "Batch Queue Host" substrate
// (Codine-like behaviour).
class FifoQueue : public QueueSystem {
 public:
  explicit FifoQueue(double cpu_slots) : QueueSystem(cpu_slots) {}
  void Poll(SimTime now) override;
  std::string flavor() const override { return "fifo"; }
};

// Cycle stealing with owner-return preemption; FCFS otherwise.
class CondorLikeQueue : public FifoQueue {
 public:
  CondorLikeQueue(double cpu_slots, double owner_return_prob_per_poll,
                  std::uint64_t seed)
      : FifoQueue(cpu_slots),
        owner_return_prob_(owner_return_prob_per_poll),
        rng_(seed) {}
  void Poll(SimTime now) override;
  std::string flavor() const override { return "condor"; }

 private:
  double owner_return_prob_;
  Rng rng_;
};

// Priority classes with aging: shorter estimated runtime => higher class.
class LoadLevelerLikeQueue : public QueueSystem {
 public:
  // A queued job gains one class per interval waited.
  static constexpr Duration kAgingInterval = Duration::Minutes(10);

  explicit LoadLevelerLikeQueue(double cpu_slots) : QueueSystem(cpu_slots) {}
  void Poll(SimTime now) override;
  std::string flavor() const override { return "loadleveler"; }

  static int ClassOf(const BatchJob& job);
};

// Native advance reservations + conservative backfill.
class MauiLikeQueue : public QueueSystem {
 public:
  explicit MauiLikeQueue(double cpu_slots) : QueueSystem(cpu_slots) {}
  void Poll(SimTime now) override;
  std::string flavor() const override { return "maui"; }

  bool SupportsReservations() const override { return true; }

  // CPU capacity the open holds set aside at instant `t`.
  double ReservedAt(SimTime t) const;

  // Admission check for a new window: can `cpus` be guaranteed over
  // [start, end) given the open holds and the running jobs' estimated
  // completions?  This is what lets a Maui-style system refuse
  // reservations it cannot honor instead of conflicting later.
  bool CanHonorWindow(SimTime start, SimTime end, double cpus,
                      SimTime now) const override;

 private:
  // The host's live holds minus those a running job occupies: that job's
  // slots are real, so its hold sets nothing more aside.
  Holds OpenHolds() const;
  // Can a non-reserved job of `demand` CPUs run in [now, now+run] without
  // intruding on the capacity `holds` set aside?
  bool FitsOutsideReservations(const Holds& holds, double demand,
                               SimTime now, Duration run) const;
};

}  // namespace legion
