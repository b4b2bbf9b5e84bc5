// Batch Queue Host Objects (paper section 3.1 and related work).
//
// "We are currently implementing Host Objects which interact with queue
// management systems such as LoadLeveler and Condor. ... most batch
// processing systems do not understand reservations, and so our basic
// Batch Queue Host maintains reservations in a fashion similar to the
// Unix Host Object.  A Batch Queue Host for a system that does support
// reservations, such as the Maui Scheduler, could take advantage of the
// underlying facilities and pass the job of managing reservations through
// to the queuing system.  Our real ability to coordinate large
// applications running across multiple queuing systems will be limited by
// the functionality of the underlying queuing system, and there is an
// unavoidable potential for conflict."
//
// BatchQueueHost fronts a simulated QueueSystem.  It shares the base
// host's lifecycle -- admission, binary fetch, creation, the instance
// records, hold release and kills -- and differs only in Place: a
// StartObject's waiting instances become one queued job, and they start
// when the queue starts the job.  The queue's job is the only record of
// it: whenever an instance leaves (killed, finished, deactivated or
// withdrawn), the host withdraws it from its job, so the job's demand
// shrinks and a job with none left is dropped, queued or running.  The
// reservation table in the Host is the one ledger of holds.  A queue
// with native reservation support vetoes windows it could not honor and
// reads the table's live holds at each decision, leaving out those its
// running jobs occupy, so it never backfills into a held window.  The
// "unavoidable conflict" shows up as the queue's reservation_conflicts
// counter: a reserved job whose queue wait pushed its start past the
// reserved window.
#pragma once

#include <memory>

#include "resources/host_object.h"
#include "resources/queue_system.h"

namespace legion {

class BatchQueueHost : public HostObject {
 public:
  BatchQueueHost(SimKernel* kernel, Loid loid, HostSpec spec,
                 std::uint64_t secret_seed,
                 std::unique_ptr<QueueSystem> queue,
                 Duration poll_period = Duration::Seconds(30));
  ~BatchQueueHost() override;

  QueueSystem& queue() { return *queue_; }
  const QueueSystem& queue() const { return *queue_; }

  void StartQueuePolling();
  void StopQueuePolling();
  // Runs one queue scheduling cycle immediately.
  void PollQueueNow() { OnPoll(); }

 protected:
  // Reservation pass-through (Maui path): the queue's veto applies to
  // each slot of every reservation request, after the vault check.
  Status PreAdmitSlot(const ReservationRequest& request, SimTime now) override;
  Status AdmitWithoutReservation(const StartObjectRequest& request) override;
  // Submits the request's waiting instances to the queue as one job.
  void Place(const StartObjectRequest& request,
             std::uint64_t reservation_serial) override;
  void ExtendAttributes(AttributeDatabase& attrs) override;
  std::string HostKind() const override { return "batch-" + queue_->flavor(); }
  // Withdraws the departed instance from its job, then polls the queue.
  void OnDeparted(const Loid& object) override;

 private:
  void OnPoll();
  void OnJobStart(const BatchJob& job);
  void OnJobVacate(const BatchJob& job);

  std::unique_ptr<QueueSystem> queue_;
  Duration poll_period_;
  SimKernel::PeriodicId poll_timer_ = 0;
  std::uint64_t next_job_id_ = 1;
};

// Convenience: a batch host whose queue manager supports reservations
// natively (the paper's Maui Scheduler example).
class MauiHost : public BatchQueueHost {
 public:
  MauiHost(SimKernel* kernel, Loid loid, HostSpec spec,
           std::uint64_t secret_seed,
           Duration poll_period = Duration::Seconds(30))
      : BatchQueueHost(kernel, loid, spec, secret_seed,
                       std::make_unique<MauiLikeQueue>(
                           static_cast<double>(spec.cpus)),
                       poll_period) {}
};

}  // namespace legion
